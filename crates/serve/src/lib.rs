//! # serve
//!
//! A zero-dependency HTTP/1.1 recommendation server over
//! [`std::net::TcpListener`], exposing the PoisonRec attack surface
//! over a real socket (DESIGN.md §5e–f):
//!
//! | route                     | semantics                                    |
//! |---------------------------|----------------------------------------------|
//! | `GET /recommend/{u}?k=`   | top-k list from the published snapshot       |
//! | `POST /feedback`          | buffer trajectories (optional defense stack) |
//! | `POST /retrain`           | drain feedback → fine-tune → atomic publish  |
//! | `GET /info`               | experimenter-side disclosure                 |
//! | `GET /metrics`            | metrics plane: JSON, or `?format=prom` text  |
//! |                           | (`?window=SECS` narrows windowed series)     |
//! | `GET /healthz`            | liveness + current generation                |
//!
//! Layering: [`http`] is the sans-io parser, [`conn`] the sans-io
//! per-connection state machine, [`app`] the transport-free router
//! (typed [`Route`]s over one snapshot cell), [`poll`] the readiness
//! layer, and this module the drivers that move bytes.
//!
//! ## The event-loop driver (default)
//!
//! One `serve-loop` thread owns every socket: a [`poll::Poller`]
//! (epoll, or ppoll fallback) reports readiness, the loop feeds bytes
//! through each connection's [`Connection`] machine, answers *fast*
//! routes (reads — lock-free snapshot pins) inline, and offloads
//! *slow* routes (feedback/retrain) to a fixed [`runtime::WorkerPool`]
//! via [`runtime::WorkerPool::spawn_waking`], whose completion wakes
//! the parked poller through a [`poll::Waker`] pipe. Idle keep-alive
//! connections therefore cost one registered fd and a small state
//! machine — **zero threads** — and total thread count is fixed at
//! `1 + threads` regardless of connection count (the acceptance
//! criterion `tests/many_conns.rs` pins at 10k connections).
//!
//! ## The blocking driver (fallback + differential tests)
//!
//! The pre-PR-6 thread-per-connection driver is retained behind
//! [`DriverKind::Blocking`]: one pool task per connection, 20 ms read
//! timeouts, same graceful-drain rules. It drives the *same*
//! [`Connection`] machine — one implementation of pipelining,
//! response ordering, and close semantics, so the drivers cannot
//! drift. Non-Linux targets fall back to it automatically.
//!
//! Both drivers keep the accepted/completed ledger: every request
//! parsed off a socket is counted accepted, every response whose last
//! byte reached the kernel counted completed, and a graceful
//! [`Server::shutdown`] reports them with `dropped() == 0`.

pub mod app;
pub mod conn;
pub mod http;
pub mod poll;

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use recsys::system::ConfigError;
use telemetry::json::Json;
use telemetry::AsyncJsonlSink;

pub use app::{AppResponse, FeedbackOutcome, MetricsFormat, RecApp, Route, RouteError};
pub use conn::{Connection, FeedOutcome, Inbound};
pub use http::{HttpError, Limits, Request, RequestParser};
pub use poll::{raise_nofile, Interest, Poller, Waker};

/// Which byte-moving driver a [`Server`] runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DriverKind {
    /// Readiness-driven event loop (epoll/ppoll); falls back to
    /// [`DriverKind::Blocking`] where no poller is available.
    #[default]
    Event,
    /// One pool task per connection with timeout-polled reads.
    Blocking,
}

impl DriverKind {
    /// Stable lowercase name used in logs and manifests.
    pub fn name(self) -> &'static str {
        match self {
            DriverKind::Event => "event",
            DriverKind::Blocking => "blocking",
        }
    }
}

/// How a [`Server`] is wired up; independent of the system it serves.
/// Construct via [`ServerConfig::builder`] for validation, or fill
/// fields directly (tests use `..Default::default()`).
pub struct ServerConfig {
    /// Port to bind on 127.0.0.1; `0` asks the OS for a free one
    /// (tests always do — see [`Server::local_addr`]).
    pub port: u16,
    /// Handler worker threads (min 1). Under the event driver these
    /// run offloaded feedback/retrain handlers; under the blocking
    /// driver they are the per-connection tasks.
    pub threads: usize,
    /// Connection ceiling; accepts beyond it are dropped at the door.
    pub max_conns: usize,
    /// One JSONL access event per request when set.
    pub access_log: Option<std::path::PathBuf>,
    /// Scripted per-request faults: each request consumes one fault
    /// ordinal, and a scripted ordinal panics inside the handler's
    /// unwind boundary — surfacing as a 500 while the server lives on.
    pub fault_plan: Option<Arc<runtime::FaultPlan>>,
    /// Parser byte budgets.
    pub limits: Limits,
    /// Byte-moving driver; [`DriverKind::Event`] unless overridden.
    pub driver: DriverKind,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            port: 0,
            threads: 2,
            max_conns: 10_000,
            access_log: None,
            fault_plan: None,
            limits: Limits::default(),
            driver: DriverKind::Event,
        }
    }
}

impl ServerConfig {
    /// A validating builder seeded with the defaults, matching the
    /// `SystemConfig::builder` idiom.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            cfg: Self::default(),
        }
    }
}

/// Builds a [`ServerConfig`], rejecting values that would otherwise
/// surface as a wedged or silently-degraded server.
pub struct ServerConfigBuilder {
    cfg: ServerConfig,
}

impl ServerConfigBuilder {
    pub fn port(mut self, port: u16) -> Self {
        self.cfg.port = port;
        self
    }

    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    pub fn max_conns(mut self, max_conns: usize) -> Self {
        self.cfg.max_conns = max_conns;
        self
    }

    pub fn access_log(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.cfg.access_log = Some(path.into());
        self
    }

    pub fn fault_plan(mut self, plan: Arc<runtime::FaultPlan>) -> Self {
        self.cfg.fault_plan = Some(plan);
        self
    }

    pub fn limits(mut self, limits: Limits) -> Self {
        self.cfg.limits = limits;
        self
    }

    pub fn driver(mut self, driver: DriverKind) -> Self {
        self.cfg.driver = driver;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<ServerConfig, ConfigError> {
        let cfg = self.cfg;
        if cfg.threads == 0 {
            return Err(ConfigError {
                field: "threads",
                message: "a server with no handler threads can answer nothing".into(),
            });
        }
        if cfg.max_conns == 0 {
            return Err(ConfigError {
                field: "max_conns",
                message: "a zero connection ceiling rejects every client".into(),
            });
        }
        if cfg.limits.max_head_bytes == 0 || cfg.limits.max_body_bytes == 0 {
            return Err(ConfigError {
                field: "limits",
                message: "zero byte budgets reject every request".into(),
            });
        }
        Ok(cfg)
    }
}

/// Counters a graceful shutdown reports back; `dropped()` must be 0.
#[derive(Clone, Copy, Debug)]
pub struct ShutdownStats {
    /// Requests fully parsed off a socket.
    pub accepted: u64,
    /// Responses fully written back.
    pub completed: u64,
}

impl ShutdownStats {
    /// Accepted requests that never got a response — the graceful-
    /// shutdown contract is that this is always zero.
    pub fn dropped(&self) -> u64 {
        self.accepted.saturating_sub(self.completed)
    }
}

struct Shared {
    app: RecApp,
    /// Access log behind a bounded queue + writer thread: the event
    /// loop pays one `try_send`, never file I/O (DESIGN.md §5i).
    log: Option<AsyncJsonlSink>,
    started: Instant,
    shutdown: AtomicBool,
    active_connections: AtomicUsize,
    connection_ids: AtomicU64,
    requests_accepted: AtomicU64,
    responses_completed: AtomicU64,
    /// Ledger-counted access events enqueued to the log.
    access_events: AtomicU64,
    /// Ledger-counted access events dropped (log queue full).
    access_dropped: AtomicU64,
    fault_plan: Option<Arc<runtime::FaultPlan>>,
    limits: Limits,
    max_conns: usize,
}

/// `serve_requests` label values are drawn from closed vocabularies
/// (7 routes x 7 statuses), but the cap still guards the
/// registry against a future labeling bug.
const REQUEST_FAMILY_CAP: usize = 256;

fn request_family() -> &'static Arc<telemetry::CounterFamily> {
    static FAMILY: OnceLock<Arc<telemetry::CounterFamily>> = OnceLock::new();
    FAMILY.get_or_init(|| {
        telemetry::stream::counter_family_with_cap(
            "serve_requests",
            &["route", "status"],
            REQUEST_FAMILY_CAP,
        )
    })
}

/// Windowed request-latency histogram (seconds), sub-millisecond-heavy
/// bounds: snapshot reads answer in tens of microseconds.
fn request_secs() -> &'static Arc<telemetry::WindowedHistogram> {
    static HIST: OnceLock<Arc<telemetry::WindowedHistogram>> = OnceLock::new();
    HIST.get_or_init(|| {
        telemetry::stream::windowed_histogram(
            "serve_request_secs",
            &[
                1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
                0.1, 0.25, 0.5, 1.0, 2.5,
            ],
        )
    })
}

/// Windowed event-loop lag histogram (micros), replacing the old
/// last-write-wins gauge of the same name: p99 lag over the last
/// minute instead of "whatever the final write saw".
fn loop_lag_micros() -> &'static Arc<telemetry::WindowedHistogram> {
    static HIST: OnceLock<Arc<telemetry::WindowedHistogram>> = OnceLock::new();
    HIST.get_or_init(|| {
        telemetry::stream::windowed_histogram(
            "serve_event_loop_lag_micros",
            &[
                10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5,
                2.5e5, 5e5, 1e6,
            ],
        )
    })
}

impl Shared {
    /// Computes the response to one request, isolating handler panics
    /// (including scripted [`runtime::FaultPlan`] faults) into 500s.
    /// Every request consumes one fault ordinal, fast or slow.
    fn compute(&self, route: &Result<Route, RouteError>, body: &[u8]) -> AppResponse {
        telemetry::metrics::counter("serve_requests_total").inc();
        let timer = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(plan) = &self.fault_plan {
                plan.on_unit();
            }
            match route {
                Ok(route) => self.app.dispatch(route, body),
                Err(err) => AppResponse {
                    status: err.status,
                    body: Json::obj().field("error", err.message.clone()),
                    raw: None,
                    content_type: "application/json",
                    generation: self.app.generation(),
                    feedback: None,
                },
            }
        }));
        let resp = outcome.unwrap_or_else(|_| {
            telemetry::metrics::counter("serve_request_panics_total").inc();
            AppResponse {
                status: 500,
                body: Json::obj().field("error", "internal error"),
                raw: None,
                content_type: "application/json",
                generation: self.app.generation(),
                feedback: None,
            }
        });
        if resp.status >= 500 {
            telemetry::metrics::counter("serve_responses_5xx_total").inc();
        }
        if telemetry::stream::enabled() {
            let route_label = match route {
                Ok(route) => route.label(),
                Err(_) => "invalid",
            };
            let status = resp.status.to_string();
            request_family().add(&[route_label, &status], 1);
            request_secs().record(timer.elapsed().as_secs_f64());
        }
        resp
    }
}

/// One `{"type":"access", ...}` event per request. `ts_micros` is a
/// monotonic clock (micros since server start), so the validator can
/// require per-connection monotonicity without wall-clock caveats.
/// `lag_micros` is the parse-to-dispatch gap (event-loop lag under the event driver).
///
/// The emit is one bounded-queue `try_send`; a full queue drops the
/// line, counted in `serve_access_log_dropped_total` and — for
/// ledger-counted requests (parse-error responses, method `"?"`, are
/// outside the accepted/completed ledger) — in the drop-accounting
/// summary `validate_jsonl --access-log` checks:
/// `events + dropped == completed`.
///
/// Judged `POST /feedback` requests additionally carry the defense
/// verdict (`verdict`/`detector`/`offered`/`accepted`/
/// `pending_before`/`pending`), making every admission decision
/// auditable offline: `validate_jsonl --access-log` checks the verdict
/// vocabulary and that `pending == pending_before + accepted` — i.e.
/// rejected feedback never increments queue depth.
#[allow(clippy::too_many_arguments)]
fn log_access(
    shared: &Shared,
    conn: u64,
    method: &str,
    path: &str,
    status: u16,
    generation: u64,
    micros: u64,
    lag_micros: u64,
    feedback: Option<FeedbackOutcome>,
) {
    let Some(log) = &shared.log else {
        return;
    };
    let counted = method != "?";
    let mut event = Json::obj()
        .field("type", "access")
        .field("conn", conn)
        .field("method", method.to_string())
        .field("path", path.to_string())
        .field("status", u64::from(status))
        .field("generation", generation)
        .field("micros", micros)
        .field("lag_micros", lag_micros)
        .field("ts_micros", shared.started.elapsed().as_micros() as u64);
    if let Some(fb) = feedback {
        event = event
            .field("verdict", fb.verdict)
            .field("detector", fb.detector)
            .field("offered", fb.offered)
            .field("accepted", fb.accepted)
            .field("pending_before", fb.pending_before)
            .field("pending", fb.pending);
    }
    let emitted = log.emit(event);
    if emitted {
        if counted {
            shared.access_events.fetch_add(1, Ordering::Relaxed);
        }
    } else {
        telemetry::metrics::counter("serve_access_log_dropped_total").inc();
        if counted {
            shared.access_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A running server. Dropping it performs a graceful shutdown.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    driver_thread: Option<std::thread::JoinHandle<()>>,
    /// Owned pool; dropped last so queued handlers finish.
    pool: Option<Arc<runtime::WorkerPool>>,
    /// Wakes the parked event loop at shutdown (event driver only).
    waker: Option<Arc<Waker>>,
    driver: DriverKind,
}

impl Server {
    /// Binds `127.0.0.1:{port}` and starts serving. The app is built
    /// by the caller so tests can inject defenses or prebuilt systems.
    pub fn start(app: RecApp, cfg: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let log = match &cfg.access_log {
            Some(path) => Some(AsyncJsonlSink::create(
                path,
                telemetry::sink::ASYNC_SINK_CAPACITY,
            )?),
            None => None,
        };
        let shared = Arc::new(Shared {
            app,
            log,
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            connection_ids: AtomicU64::new(0),
            requests_accepted: AtomicU64::new(0),
            responses_completed: AtomicU64::new(0),
            access_events: AtomicU64::new(0),
            access_dropped: AtomicU64::new(0),
            fault_plan: cfg.fault_plan,
            limits: cfg.limits,
            max_conns: cfg.max_conns.max(1),
        });

        let pool = Arc::new(runtime::WorkerPool::new(cfg.threads.max(1)));

        // Prefer the event driver; fall back to blocking when no
        // poller backend exists (non-Linux targets).
        let mut driver = cfg.driver;
        let mut event_parts = None;
        if driver == DriverKind::Event {
            match (Poller::new(), Waker::new()) {
                (Ok(poller), Ok((waker, reader))) => {
                    event_parts = Some((poller, Arc::new(waker), reader));
                }
                _ => driver = DriverKind::Blocking,
            }
        }

        if let Some(log) = &shared.log {
            // First enqueue into a fresh queue: cannot be full, and the
            // FIFO writer guarantees the manifest stays line one.
            log.emit(
                Json::obj()
                    .field("type", "manifest")
                    .field("kind", "access-log")
                    .field("addr", addr.to_string())
                    .field("ranker", shared.app.system().ranker_name())
                    .field("threads", cfg.threads.max(1))
                    .field("max_conns", shared.max_conns)
                    .field("driver", driver.name()),
            );
        }

        let (driver_thread, waker) = match event_parts {
            Some((poller, waker, reader)) => {
                let event_loop = EventLoop::new(
                    listener,
                    poller,
                    Arc::clone(&waker),
                    reader,
                    Arc::clone(&shared),
                    Arc::clone(&pool),
                );
                let handle = std::thread::Builder::new()
                    .name("serve-loop".into())
                    .spawn(move || event_loop.run())?;
                (handle, Some(waker))
            }
            None => {
                let accept_shared = Arc::clone(&shared);
                let accept_pool = Arc::clone(&pool);
                let handle = std::thread::Builder::new()
                    .name("serve-accept".into())
                    .spawn(move || blocking_accept_loop(listener, accept_shared, accept_pool))?;
                (handle, None)
            }
        };

        Ok(Self {
            addr,
            shared,
            driver_thread: Some(driver_thread),
            pool: Some(pool),
            waker,
            driver,
        })
    }

    /// The bound address — with `port: 0`, the OS-assigned one.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The driver actually running (the event driver may have fallen
    /// back to blocking on targets without a poller).
    pub fn driver(&self) -> DriverKind {
        self.driver
    }

    /// The app behind this server. Wire-side experiments read the
    /// defense verdict ledger off it after driving traffic through
    /// the socket.
    pub fn app(&self) -> &RecApp {
        &self.shared.app
    }

    /// Stops accepting, waits for every in-flight request to drain,
    /// and reports the request/response ledger. Idempotent via Drop.
    pub fn shutdown(mut self) -> ShutdownStats {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> ShutdownStats {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(waker) = &self.waker {
            runtime::Wake::wake(&**waker);
        }
        if let Some(handle) = self.driver_thread.take() {
            let _ = handle.join();
        }
        // Blocking driver: every connection task decrements on exit.
        while self.shared.active_connections.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Dropping the pool joins its workers (queue is drained first).
        self.pool = None;
        let stats = ShutdownStats {
            accepted: self.shared.requests_accepted.load(Ordering::SeqCst),
            completed: self.shared.responses_completed.load(Ordering::SeqCst),
        };
        // Drain the access-log queue to disk, then append the
        // drop-accounting summary as the guaranteed-last line:
        // events + dropped == completed (parse-error lines, method
        // "?", sit outside the ledger and this accounting).
        if let Some(log) = &self.shared.log {
            if let Some(sink) = log.close() {
                let _ = sink.emit(
                    &Json::obj()
                        .field("type", "access-summary")
                        .field("events", self.shared.access_events.load(Ordering::SeqCst))
                        .field("dropped", self.shared.access_dropped.load(Ordering::SeqCst))
                        .field("completed", stats.completed),
                );
            }
        }
        stats
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.pool.is_some() {
            self.shutdown_inner();
        }
    }
}

// ---------------------------------------------------------------------------
// Event driver
// ---------------------------------------------------------------------------

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// How long a half-received request may keep a draining connection
/// alive (both drivers), bounding shutdown latency against clients
/// that stall mid-request.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// An offloaded handler's finished response, sent back to the loop.
struct Completion {
    token: u64,
    status: u16,
    content_type: &'static str,
    body: String,
    generation: u64,
    method: String,
    path: String,
    micros: u64,
    lag_micros: u64,
    feedback: Option<FeedbackOutcome>,
}

struct ConnEntry {
    stream: TcpStream,
    machine: Connection,
    interest: Interest,
    /// Peer half-closed its write side; serve what's queued, then go.
    eof: bool,
    /// Last byte-level progress, for the shutdown drain grace.
    last_progress: Instant,
}

struct EventLoop {
    listener: TcpListener,
    poller: Poller,
    waker: Arc<Waker>,
    waker_reader: std::io::PipeReader,
    shared: Arc<Shared>,
    pool: Arc<runtime::WorkerPool>,
    conns: HashMap<u64, ConnEntry>,
    next_token: u64,
    tx: Sender<Completion>,
    rx: Receiver<Completion>,
    accepting: bool,
}

impl EventLoop {
    fn new(
        listener: TcpListener,
        poller: Poller,
        waker: Arc<Waker>,
        waker_reader: std::io::PipeReader,
        shared: Arc<Shared>,
        pool: Arc<runtime::WorkerPool>,
    ) -> Self {
        let (tx, rx) = std::sync::mpsc::channel();
        Self {
            listener,
            poller,
            waker,
            waker_reader,
            shared,
            pool,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            tx,
            rx,
            accepting: true,
        }
    }

    fn run(mut self) {
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            if self
                .poller
                .register(self.listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
                .is_err()
                || self
                    .poller
                    .register(self.waker_reader.as_raw_fd(), WAKER_TOKEN, Interest::READ)
                    .is_err()
            {
                return;
            }
        }
        let mut events = Vec::new();
        loop {
            let draining = self.shared.shutdown.load(Ordering::SeqCst);
            let timeout = if draining {
                Duration::from_millis(20)
            } else {
                Duration::from_millis(200)
            };
            events.clear();
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                return;
            }
            for &event in &events {
                match event.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => self.drain_waker(),
                    token => self.conn_ready(token, event),
                }
            }
            self.drain_completions();
            if self.shared.shutdown.load(Ordering::SeqCst) {
                self.drive_drain();
                if self.conns.is_empty() {
                    return;
                }
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            if !self.accepting {
                return;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.conns.len() >= self.shared.max_conns {
                        // Over the ceiling: hang up at the door.
                        telemetry::metrics::counter("serve_conns_rejected_total").inc();
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    #[cfg(unix)]
                    {
                        use std::os::fd::AsRawFd;
                        if self
                            .poller
                            .register(stream.as_raw_fd(), token, Interest::READ)
                            .is_err()
                        {
                            continue;
                        }
                    }
                    telemetry::metrics::gauge("serve_active_connections").add(1);
                    self.conns.insert(
                        token,
                        ConnEntry {
                            stream,
                            machine: Connection::new(self.shared.limits),
                            interest: Interest::READ,
                            eof: false,
                            last_progress: Instant::now(),
                        },
                    );
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    fn drain_waker(&mut self) {
        // Clear the coalescing flag first: a wake racing this drain
        // writes a fresh byte and the next `wait` returns immediately.
        self.waker.begin_drain();
        let mut buf = [0u8; 64];
        while matches!((&self.waker_reader).read(&mut buf), Ok(n) if n > 0) {}
    }

    fn conn_ready(&mut self, token: u64, event: poll::Event) {
        if !self.conns.contains_key(&token) {
            return; // torn down earlier in this batch
        }
        if event.readable && !self.read_conn(token) {
            self.teardown(token);
            return;
        }
        self.service_conn(token);
        self.flush_and_maybe_close(token);
    }

    /// Reads everything currently available; false = tear down now.
    fn read_conn(&mut self, token: u64) -> bool {
        let entry = self.conns.get_mut(&token).expect("checked by caller");
        if entry.machine.is_closing() || entry.eof {
            return true;
        }
        let mut buf = [0u8; 8192];
        loop {
            match entry.stream.read(&mut buf) {
                Ok(0) => {
                    entry.eof = true;
                    // Nothing queued and nothing mid-parse: plain close.
                    return !entry.machine.is_idle();
                }
                Ok(n) => {
                    entry.last_progress = Instant::now();
                    let outcome = entry.machine.feed(&buf[..n]);
                    if outcome.accepted > 0 {
                        self.shared
                            .requests_accepted
                            .fetch_add(outcome.accepted as u64, Ordering::SeqCst);
                    }
                    if outcome.error.is_some() {
                        return true; // answered via take_due_error
                    }
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => return true,
                Err(_) => return false,
            }
        }
    }

    /// Dispatches every ready request: fast routes inline, slow ones
    /// to the worker set (at most one in flight per connection — the
    /// machine enforces response ordering).
    fn service_conn(&mut self, token: u64) {
        loop {
            let Some(entry) = self.conns.get_mut(&token) else {
                return;
            };
            if let Some(err) = entry.machine.take_due_error() {
                let body = Json::obj().field("error", err.reason().to_string());
                entry
                    .machine
                    .push_error_response(err.status(), &body.render());
                log_access(
                    &self.shared,
                    token,
                    "?",
                    "?",
                    err.status(),
                    self.shared.app.generation(),
                    0,
                    0,
                    None,
                );
                return;
            }
            if !entry.machine.has_ready_request() {
                return;
            }
            let inbound = entry.machine.take_request().expect("ready");
            let lag_micros = inbound.parsed_at.elapsed().as_micros() as u64;
            loop_lag_micros().record(lag_micros as f64);
            let req = inbound.request;
            let route = Route::parse(&req.method, &req.path, &req.query);
            let fast = route.as_ref().map_or(true, Route::is_fast);
            if fast {
                let timer = Instant::now();
                let resp = self.shared.compute(&route, &req.body);
                let micros = timer.elapsed().as_micros() as u64;
                let force_close = self.shared.shutdown.load(Ordering::SeqCst);
                let entry = self.conns.get_mut(&token).expect("still present");
                entry.machine.push_response_with(
                    resp.status,
                    resp.content_type,
                    &resp.render_body(),
                    force_close,
                );
                log_access(
                    &self.shared,
                    token,
                    &req.method,
                    &req.path,
                    resp.status,
                    resp.generation,
                    micros,
                    lag_micros,
                    resp.feedback,
                );
                continue; // next pipelined request
            }
            // Slow route: offload; the completion wakes the poller.
            let shared = Arc::clone(&self.shared);
            let tx = self.tx.clone();
            let waker: Arc<dyn runtime::Wake> = Arc::clone(&self.waker) as _;
            self.pool.spawn_waking(
                move || {
                    let timer = Instant::now();
                    let resp = shared.compute(&route, &req.body);
                    let _ = tx.send(Completion {
                        token,
                        status: resp.status,
                        content_type: resp.content_type,
                        body: resp.render_body(),
                        generation: resp.generation,
                        method: req.method,
                        path: req.path,
                        micros: timer.elapsed().as_micros() as u64,
                        lag_micros,
                        feedback: resp.feedback,
                    });
                },
                waker,
            );
            return; // the machine blocks further takes until completion
        }
    }

    fn drain_completions(&mut self) {
        while let Ok(done) = self.rx.try_recv() {
            let Some(entry) = self.conns.get_mut(&done.token) else {
                continue; // peer vanished while the handler ran
            };
            let force_close = self.shared.shutdown.load(Ordering::SeqCst);
            entry.machine.push_response_with(
                done.status,
                done.content_type,
                &done.body,
                force_close,
            );
            log_access(
                &self.shared,
                done.token,
                &done.method,
                &done.path,
                done.status,
                done.generation,
                done.micros,
                done.lag_micros,
                done.feedback,
            );
            let token = done.token;
            self.service_conn(token);
            self.flush_and_maybe_close(token);
        }
    }

    /// Writes pending output, adjusts write interest, and closes the
    /// connection when its machine says so.
    fn flush_and_maybe_close(&mut self, token: u64) {
        let Some(entry) = self.conns.get_mut(&token) else {
            return;
        };
        while entry.machine.wants_write() {
            match entry.stream.write(entry.machine.pending_output()) {
                Ok(0) => {
                    self.teardown(token);
                    return;
                }
                Ok(n) => {
                    entry.last_progress = Instant::now();
                    let completed = entry.machine.advance_write(n);
                    if completed > 0 {
                        self.shared
                            .responses_completed
                            .fetch_add(completed, Ordering::SeqCst);
                    }
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.teardown(token);
                    return;
                }
            }
        }
        let want = if entry.machine.wants_write() {
            Interest::READ_WRITE
        } else {
            Interest::READ
        };
        if want != entry.interest {
            entry.interest = want;
            #[cfg(unix)]
            {
                use std::os::fd::AsRawFd;
                let _ = self
                    .poller
                    .reregister(entry.stream.as_raw_fd(), token, want);
            }
        }
        let machine = &self.conns[&token].machine;
        let done = machine.should_close_now()
            || (self.conns[&token].eof && !machine.in_flight() && !machine.wants_write());
        if done {
            self.teardown(token);
        }
    }

    /// One shutdown sweep: stop accepting, retire idle connections,
    /// cut off stalled half-requests after the grace period.
    fn drive_drain(&mut self) {
        if self.accepting {
            self.accepting = false;
            #[cfg(unix)]
            {
                use std::os::fd::AsRawFd;
                let _ = self.poller.deregister(self.listener.as_raw_fd());
            }
        }
        let now = Instant::now();
        let doomed: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, entry)| {
                entry.machine.is_idle()
                    || (entry.machine.buffered_partial() > 0
                        && !entry.machine.in_flight()
                        && now.duration_since(entry.last_progress) > DRAIN_GRACE)
            })
            .map(|(&token, _)| token)
            .collect();
        for token in doomed {
            self.teardown(token);
        }
    }

    fn teardown(&mut self, token: u64) {
        if let Some(entry) = self.conns.remove(&token) {
            #[cfg(unix)]
            {
                use std::os::fd::AsRawFd;
                let _ = self.poller.deregister(entry.stream.as_raw_fd());
            }
            telemetry::metrics::gauge("serve_active_connections").add(-1);
        }
    }
}

// ---------------------------------------------------------------------------
// Blocking driver
// ---------------------------------------------------------------------------

fn blocking_accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    pool: Arc<runtime::WorkerPool>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.active_connections.load(Ordering::SeqCst) >= shared.max_conns {
                    telemetry::metrics::counter("serve_conns_rejected_total").inc();
                    drop(stream);
                    continue;
                }
                shared.active_connections.fetch_add(1, Ordering::SeqCst);
                telemetry::metrics::gauge("serve_active_connections").add(1);
                let conn_shared = Arc::clone(&shared);
                pool.spawn(move || {
                    let conn = conn_shared.connection_ids.fetch_add(1, Ordering::Relaxed);
                    handle_connection_blocking(stream, &conn_shared, conn);
                    conn_shared
                        .active_connections
                        .fetch_sub(1, Ordering::SeqCst);
                    telemetry::metrics::gauge("serve_active_connections").add(-1);
                });
            }
            Err(err) if err.kind() == ErrorKind::WouldBlock => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Drives one connection's [`Connection`] machine over a blocking
/// socket with a 20 ms read timeout — the same machine the event loop
/// drives, fed and flushed sequentially.
fn handle_connection_blocking(stream: TcpStream, shared: &Shared, conn: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    let mut stream = stream;
    let mut machine = Connection::new(shared.limits);
    let mut read_buf = [0u8; 8192];
    let mut eof = false;
    let mut stalled_since: Option<Instant> = None;

    loop {
        // Serve everything already parsed (pipelining) first.
        loop {
            if let Some(err) = machine.take_due_error() {
                let body = Json::obj().field("error", err.reason().to_string());
                machine.push_error_response(err.status(), &body.render());
                log_access(
                    shared,
                    conn,
                    "?",
                    "?",
                    err.status(),
                    shared.app.generation(),
                    0,
                    0,
                    None,
                );
                break;
            }
            let Some(inbound) = machine.take_request() else {
                break;
            };
            let lag_micros = inbound.parsed_at.elapsed().as_micros() as u64;
            let req = inbound.request;
            let route = Route::parse(&req.method, &req.path, &req.query);
            let timer = Instant::now();
            let resp = shared.compute(&route, &req.body);
            let micros = timer.elapsed().as_micros() as u64;
            let force_close = shared.shutdown.load(Ordering::SeqCst);
            machine.push_response_with(
                resp.status,
                resp.content_type,
                &resp.render_body(),
                force_close,
            );
            log_access(
                shared,
                conn,
                &req.method,
                &req.path,
                resp.status,
                resp.generation,
                micros,
                lag_micros,
                resp.feedback,
            );
        }

        // Flush: blocking write, so this drains fully or fails.
        while machine.wants_write() {
            match stream.write(machine.pending_output()) {
                Ok(0) => return,
                Ok(n) => {
                    let completed = machine.advance_write(n);
                    if completed > 0 {
                        shared
                            .responses_completed
                            .fetch_add(completed, Ordering::SeqCst);
                    }
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => {}
                Err(_) => return,
            }
        }
        if machine.should_close_now() {
            return;
        }
        if eof && !machine.in_flight() {
            return;
        }

        match stream.read(&mut read_buf) {
            Ok(0) => {
                if machine.is_idle() {
                    return;
                }
                eof = true;
            }
            Ok(n) => {
                stalled_since = None;
                let outcome = machine.feed(&read_buf[..n]);
                if outcome.accepted > 0 {
                    shared
                        .requests_accepted
                        .fetch_add(outcome.accepted as u64, Ordering::SeqCst);
                }
            }
            Err(err)
                if err.kind() == ErrorKind::WouldBlock || err.kind() == ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    if machine.is_idle() {
                        return;
                    }
                    // A request is mid-flight: grant a bounded grace.
                    if machine.buffered_partial() > 0 {
                        let since = *stalled_since.get_or_insert_with(Instant::now);
                        if since.elapsed() > DRAIN_GRACE {
                            return;
                        }
                    }
                }
            }
            Err(_) => return,
        }
    }
}
