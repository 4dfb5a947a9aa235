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
//! | `POST /retrain`           | drain feedback → fine-tune → publish         |
//! | `GET /info`               | experimenter-side disclosure                 |
//! | `GET /metrics`            | metrics plane: JSON, or `?format=prom` text  |
//! |                           | (`?window=SECS` narrows windowed series)     |
//! | `GET /healthz`            | liveness + current generation                |
//!
//! Layering: [`http`] is the sans-io parser, [`conn`] the sans-io
//! per-connection state machine, `loop_core` the sans-io loop
//! ([`LoopCore`]: accept, ceiling, inline vs. offload, completions,
//! drain and teardown), [`app`] the transport-free router (typed
//! [`Route`]s over one snapshot cell), [`poll`] the readiness layer, and
//! this module the one driver that moves bytes.
//!
//! ## The driver
//!
//! One `serve-loop` thread owns every socket. A [`poll::Poller`] (epoll,
//! or the portable sweep backend where epoll is unavailable) reports
//! readiness; the driver turns it into accepts, reads and writes, feeds
//! their outcomes and the current time to the [`LoopCore`], and runs the
//! actions the core returns. It answers *fast* routes (reads — an
//! `Arc` cloned from the snapshot cell) inline and offloads *slow* routes
//! (feedback/retrain) to a fixed [`runtime::WorkerPool`] via
//! [`runtime::WorkerPool::spawn_waking`], whose completion wakes the
//! parked poller. Idle keep-alive connections therefore cost one
//! registered fd and a small state machine — **zero threads** — and
//! total thread count is fixed at `1 + threads` regardless of
//! connection count (the acceptance criterion `tests/many_conns.rs`
//! pins at 10k connections).
//!
//! An accept that fails with anything but `WouldBlock` (EMFILE at the
//! fd limit) pauses accepting, counted in `serve_accept_errors_total`;
//! the core re-arms it after the next teardown or the next timed-out
//! wait, so a listener that stays readable cannot spin the loop.
//!
//! The core keeps the accepted/completed ledger: every request parsed
//! off a socket is counted accepted, every response whose last byte
//! reached the kernel counted completed, and a graceful
//! [`Server::shutdown`] reports them with `dropped() == 0`.

pub mod app;
pub mod conn;
pub mod http;
mod loop_core;
pub mod poll;

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use recsys::system::ConfigError;
use telemetry::json::Json;
use telemetry::AsyncJsonlSink;

pub use app::{AppResponse, FeedbackOutcome, MetricsFormat, RecApp, Route, RouteError};
pub use conn::{Connection, FeedOutcome, Inbound};
pub use http::{HttpError, Limits, Request, RequestParser};
pub use loop_core::{Action, LoopCore, DRAIN_GRACE};
pub use poll::{raise_nofile, Interest, Poller, Waker};

/// How a [`Server`] is wired up; independent of the system it serves.
/// Construct via [`ServerConfig::builder`] for validation, or fill
/// fields directly (tests use `..Default::default()`).
pub struct ServerConfig {
    /// Port to bind on 127.0.0.1; `0` asks the OS for a free one
    /// (tests always do — see [`Server::local_addr`]).
    pub port: u16,
    /// Handler worker threads (min 1): they run the offloaded
    /// feedback/retrain handlers.
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
    /// Ledger-counted access events enqueued to the log.
    access_events: AtomicU64,
    /// Ledger-counted access events dropped (log queue full).
    access_dropped: AtomicU64,
    fault_plan: Option<Arc<runtime::FaultPlan>>,
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
    /// Answers one request, isolating handler panics (including
    /// scripted [`runtime::FaultPlan`] faults) into 500s. Every request
    /// consumes one fault ordinal, fast or slow.
    fn answer(
        &self,
        token: u64,
        req: Request,
        route: &Result<Route, RouteError>,
        lag_micros: u64,
    ) -> Answer {
        telemetry::metrics::counter("serve_requests_total").inc();
        let timer = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(plan) = &self.fault_plan {
                plan.on_unit();
            }
            match route {
                Ok(route) => self.app.dispatch(route, &req.body),
                Err(err) => AppResponse::error(err.status, &err.message, self.app.generation()),
            }
        }));
        let resp = outcome.unwrap_or_else(|_| {
            telemetry::metrics::counter("serve_request_panics_total").inc();
            AppResponse::error(500, "internal error", self.app.generation())
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
        Answer {
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
        }
    }
}

/// One `{"type":"access", ...}` event per request. `ts_micros` is a
/// monotonic clock (micros since server start), so the validator can
/// require per-connection monotonicity without wall-clock caveats.
/// `lag_micros` is the parse-to-dispatch gap (event-loop lag).
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
fn log_access(shared: &Shared, done: &Answer) {
    let Some(log) = &shared.log else {
        return;
    };
    let counted = done.method != "?";
    let mut event = Json::obj()
        .field("type", "access")
        .field("conn", done.token)
        .field("method", done.method.clone())
        .field("path", done.path.clone())
        .field("status", u64::from(done.status))
        .field("generation", done.generation)
        .field("micros", done.micros)
        .field("lag_micros", done.lag_micros)
        .field("ts_micros", shared.started.elapsed().as_micros() as u64);
    if let Some(fb) = done.feedback {
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
    loop_thread: Option<std::thread::JoinHandle<ShutdownStats>>,
    /// Owned pool; dropped last so queued handlers finish.
    pool: Option<Arc<runtime::WorkerPool>>,
    /// Unparks the loop at shutdown.
    waker: Arc<Waker>,
    poller: &'static str,
}

impl Server {
    /// Binds `127.0.0.1:{port}` and starts serving. The app is built
    /// by the caller so tests can inject defenses or prebuilt systems.
    pub fn start(app: RecApp, cfg: ServerConfig) -> std::io::Result<Self> {
        Self::start_on(app, cfg, Poller::new())
    }

    fn start_on(app: RecApp, cfg: ServerConfig, mut poller: Poller) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        poller.register(poll::raw_fd(&listener), LISTENER_TOKEN, Interest::READ)?;

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
            access_events: AtomicU64::new(0),
            access_dropped: AtomicU64::new(0),
            fault_plan: cfg.fault_plan,
        });
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
                    .field("max_conns", cfg.max_conns.max(1))
                    .field("poller", poller.backend_name()),
            );
        }

        let pool = Arc::new(runtime::WorkerPool::new(cfg.threads.max(1)));
        let (tx, rx) = std::sync::mpsc::channel();
        let waker = poller.waker();
        let backend = poller.backend_name();
        let driver = Driver {
            core: LoopCore::new(cfg.limits, cfg.max_conns),
            listener,
            poller,
            streams: HashMap::new(),
            shared: Arc::clone(&shared),
            pool: Arc::clone(&pool),
            tx,
            rx,
        };
        let loop_thread = std::thread::Builder::new()
            .name("serve-loop".into())
            .spawn(move || driver.run())?;

        Ok(Self {
            addr,
            shared,
            loop_thread: Some(loop_thread),
            pool: Some(pool),
            waker,
            poller: backend,
        })
    }

    /// The bound address — with `port: 0`, the OS-assigned one.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The readiness backend the loop runs on: `"epoll"` or `"sweep"`.
    pub fn poller(&self) -> &'static str {
        self.poller
    }

    /// The app behind this server. Wire-side experiments read the
    /// defense verdict ledger off it after driving traffic through
    /// the socket.
    pub fn app(&self) -> &RecApp {
        &self.shared.app
    }

    /// Stops accepting, waits for every in-flight request to drain,
    /// and reports the request/response ledger. Idempotent via Drop.
    /// A panic of the serve loop resurfaces here.
    pub fn shutdown(mut self) -> ShutdownStats {
        self.shutdown_inner()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    fn shutdown_inner(&mut self) -> std::thread::Result<ShutdownStats> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        runtime::Wake::wake(&*self.waker);
        let joined = self
            .loop_thread
            .take()
            .expect("a server shuts down once")
            .join();
        // Dropping the pool joins its workers (queue is drained first).
        self.pool = None;
        // Drain the access-log queue to disk, then append the
        // drop-accounting summary as the guaranteed-last line:
        // events + dropped == completed (parse-error lines, method
        // "?", sit outside the ledger and this accounting).
        if let Some(sink) = self.shared.log.as_ref().and_then(AsyncJsonlSink::close) {
            if let Ok(stats) = &joined {
                let _ = sink.emit(
                    &Json::obj()
                        .field("type", "access-summary")
                        .field("events", self.shared.access_events.load(Ordering::SeqCst))
                        .field("dropped", self.shared.access_dropped.load(Ordering::SeqCst))
                        .field("completed", stats.completed),
                );
            }
        }
        joined
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.pool.is_some() {
            let _ = self.shutdown_inner();
        }
    }
}

// ---------------------------------------------------------------------------
// The driver: syscalls and the clock around the sans-io core
// ---------------------------------------------------------------------------

/// Connection tokens come from the core, starting at 1.
const LISTENER_TOKEN: u64 = 0;

/// One answered request: what the core writes and the access log
/// records. Offloaded handlers send theirs back to the loop.
#[derive(Default)]
struct Answer {
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

struct Driver {
    core: LoopCore,
    listener: TcpListener,
    poller: Poller,
    streams: HashMap<u64, TcpStream>,
    shared: Arc<Shared>,
    pool: Arc<runtime::WorkerPool>,
    tx: Sender<Answer>,
    rx: Receiver<Answer>,
}

impl Driver {
    fn run(mut self) -> ShutdownStats {
        let mut events = Vec::new();
        while !self.core.is_done() {
            let timeout = if self.shared.shutdown.load(Ordering::SeqCst) {
                Duration::from_millis(20)
            } else {
                Duration::from_millis(200)
            };
            events.clear();
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                break;
            }
            for event in &events {
                if event.token == LISTENER_TOKEN {
                    self.accept_ready();
                } else {
                    if event.readable {
                        self.read(event.token);
                    }
                    if event.writable {
                        self.core.flush(event.token);
                    }
                }
            }
            // Answers from offloaded handlers.
            let mut completed = false;
            while let Ok(done) = self.rx.try_recv() {
                completed = true;
                self.finish(done);
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                self.core.begin_drain();
            }
            self.core
                .tick(Instant::now(), events.is_empty() && !completed);
            self.run_actions();
        }
        self.core.ledger()
    }

    fn accept_ready(&mut self) {
        while self.core.accepting() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let Some(token) = self.core.accept(Instant::now()) else {
                        // Over the ceiling: hang up at the door.
                        telemetry::metrics::counter("serve_conns_rejected_total").inc();
                        continue;
                    };
                    if self
                        .poller
                        .register(poll::raw_fd(&stream), token, Interest::READ)
                        .is_err()
                    {
                        self.core.close(token);
                        continue;
                    }
                    telemetry::metrics::gauge("serve_active_connections").add(1);
                    self.streams.insert(token, stream);
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    telemetry::metrics::counter("serve_accept_errors_total").inc();
                    self.core.accept_failed();
                }
            }
        }
    }

    /// Reads everything currently available into the core.
    fn read(&mut self, token: u64) {
        let Some(stream) = self.streams.get_mut(&token) else {
            return;
        };
        let mut buf = [0u8; 8192];
        while self.core.wants_read(token) {
            match stream.read(&mut buf) {
                Ok(n) => self.core.received(token, &buf[..n], Instant::now()),
                Err(err) if err.kind() == ErrorKind::WouldBlock => return,
                Err(_) => self.core.close(token),
            }
        }
    }

    /// Writes the core's output until it is empty or would block.
    fn write(&mut self, token: u64) {
        let Some(stream) = self.streams.get_mut(&token) else {
            return;
        };
        while let Some(output) = self.core.output(token) {
            match stream.write(output) {
                Ok(n) if n > 0 => self.core.written(token, n, Instant::now()),
                Err(err) if err.kind() == ErrorKind::WouldBlock => {
                    self.core.write_blocked(token);
                    return;
                }
                _ => {
                    self.core.close(token);
                    return;
                }
            }
        }
    }

    /// Hands an answer to the core and logs it, unless its connection
    /// vanished while the handler ran.
    fn finish(&mut self, done: Answer) {
        if self
            .core
            .respond(done.token, done.status, done.content_type, &done.body)
        {
            log_access(&self.shared, &done);
        }
    }

    fn run_actions(&mut self) {
        while let Some(action) = self.core.next_action() {
            match action {
                Action::Listen(on) => {
                    let fd = poll::raw_fd(&self.listener);
                    if !on {
                        let _ = self.poller.deregister(fd);
                    } else if self
                        .poller
                        .register(fd, LISTENER_TOKEN, Interest::READ)
                        .is_err()
                    {
                        self.core.accept_failed();
                    }
                }
                Action::Interest(token, interest) => {
                    if let Some(stream) = self.streams.get(&token) {
                        let _ = self
                            .poller
                            .reregister(poll::raw_fd(stream), token, interest);
                    }
                }
                Action::Dispatch {
                    token,
                    inbound,
                    route,
                    inline,
                } => self.dispatch(token, inbound, route, inline),
                Action::Rejected { token, status } => log_access(
                    &self.shared,
                    &Answer {
                        token,
                        status,
                        generation: self.shared.app.generation(),
                        method: "?".into(),
                        path: "?".into(),
                        ..Answer::default()
                    },
                ),
                Action::Write(token) => self.write(token),
                Action::Close(token) => {
                    if let Some(stream) = self.streams.remove(&token) {
                        let _ = self.poller.deregister(poll::raw_fd(&stream));
                        telemetry::metrics::gauge("serve_active_connections").add(-1);
                    }
                }
            }
        }
    }

    /// Computes a fast route inline; offloads a slow one to the pool,
    /// whose completion wakes the poller.
    fn dispatch(
        &mut self,
        token: u64,
        inbound: Inbound,
        route: Result<Route, RouteError>,
        inline: bool,
    ) {
        let lag_micros = inbound.parsed_at.elapsed().as_micros() as u64;
        loop_lag_micros().record(lag_micros as f64);
        if inline {
            let done = self
                .shared
                .answer(token, inbound.request, &route, lag_micros);
            self.finish(done);
            return;
        }
        let shared = Arc::clone(&self.shared);
        let tx = self.tx.clone();
        self.pool.spawn_waking(
            move || {
                let done = shared.answer(token, inbound.request, &route, lag_micros);
                let _ = tx.send(done);
            },
            self.poller.waker(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recsys::remote::HttpClient;

    /// `tests/serve_attack.rs`'s fault sequence over real sockets on the
    /// sweep backend, plus one offloaded route: sweep runs with no waker,
    /// so the completion must surface within a tick.
    #[test]
    fn sweep_backend_contains_a_handler_panic_and_serves_offloaded_routes() {
        let cfg = ServerConfig {
            threads: 1,
            fault_plan: Some(Arc::new(runtime::FaultPlan::new().panic_on_job(2))),
            ..ServerConfig::default()
        };
        let server = Server::start_on(crate::app::tests::app(), cfg, Poller::sweep())
            .expect("bind 127.0.0.1:0");
        assert_eq!(server.poller(), "sweep");

        let mut client = HttpClient::new(server.local_addr().to_string());
        let statuses: Vec<u16> = (0..5)
            .map(|_| client.request("GET", "/healthz", None).expect("healthz").0)
            .collect();
        assert_eq!(statuses, vec![200, 200, 500, 200, 200]);
        let (status, _) = client.request("POST", "/retrain", None).expect("retrain");
        assert_eq!(status, 200);
        let stats = server.shutdown();
        assert_eq!(stats.dropped(), 0);
        assert_eq!(stats.accepted, 6);
    }
}
