//! The recommendation application behind the socket: typed routing,
//! the published snapshot, the pending-feedback queue, and retrains.
//!
//! [`RecApp`] is transport-free — it maps parsed [`Route`]s to JSON
//! responses — so its semantics are unit-testable without a listener.
//!
//! ## Routing
//!
//! [`Route::parse`] is the **only** place 404/405/400 decisions are
//! made: it turns `(method, path, query)` into a typed [`Route`] or a
//! [`RouteError`] carrying the response status. [`RecApp::dispatch`]
//! then handles a `Route` without ever re-inspecting path strings —
//! which is what lets the event loop classify a request as fast or
//! slow before deciding where to run it.
//!
//! ## Concurrency model (DESIGN.md §5f)
//!
//! * **Reads never wait for a retrain.** `/recommend`, `/healthz` and
//!   `/metrics` read the snapshot cell, a `Mutex<Arc<RankerSnapshot>>`
//!   held only to clone the `Arc` or read its generation, plus
//!   immutable state. `/info` also reads the defense stack under the
//!   admission lock.
//! * **Feedback is buffered, not applied.** `POST /feedback` judges
//!   and admits trajectories under one brief admission lock (defense
//!   verdicts, budget check, append to the pending queue), so the
//!   queue's order *is* the global admission order; only a retrain
//!   makes them visible.
//! * **Retrains happen off to the side.** `POST /retrain` takes the
//!   whole queue, fine-tunes a fresh [`RankerSnapshot`] while the
//!   previous generation keeps serving, then swaps the new `Arc` into
//!   the cell. A reader that cloned the old `Arc` keeps it until it lets
//!   go. A `Mutex` serializes concurrent retrains (the seed stream is
//!   consumed per retrain), but no reader ever takes it.
//!
//! This mirrors the in-process [`BlackBoxSystem`] exactly: one
//! feedback-then-retrain round trip consumes one observation-seed
//! ordinal and produces the same model the in-process `observe` call
//! would have produced — the bit-identity the over-the-wire attack
//! path rests on.

use std::sync::{Arc, Mutex};

use recsys::data::Trajectory;
use recsys::defense::{DefenseStack, Verdict, VerdictCounts};
use recsys::snapshot::RankerSnapshot;
use recsys::system::BlackBoxSystem;
use telemetry::json::{self, Json};

use crate::http::Request;

/// Exposition format for `GET /metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MetricsFormat {
    /// The JSON document (cumulative instruments + `"stream"` sub-object).
    #[default]
    Json,
    /// Prometheus text exposition 0.0.4.
    Prom,
}

/// A parsed, typed request target. Everything downstream of parsing
/// dispatches on this — never on path strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Route {
    Healthz,
    Metrics {
        format: MetricsFormat,
        /// `?window=SECS` narrows the streaming views; `None` uses each
        /// instrument's full window.
        window: Option<u32>,
    },
    Info,
    Feedback,
    Retrain,
    Recommend {
        user: u32,
        /// `?k=` when given; `None` means the system's configured top-k.
        k: Option<usize>,
    },
}

/// A routing rejection: the status plus the message for the body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteError {
    pub status: u16,
    pub message: String,
}

impl RouteError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        Self {
            status,
            message: message.into(),
        }
    }
}

/// `?k=` values past this are rejected as 400 (a list longer than any
/// catalog is a client bug, not a big ask).
const MAX_K: usize = 10_000;

impl Route {
    /// The single source of 404/405/400 decisions: an unknown path is
    /// 404, a known path with the wrong method 405, a malformed user
    /// id or `k` 400.
    pub fn parse(
        method: &str,
        path: &str,
        query: &[(String, String)],
    ) -> Result<Route, RouteError> {
        let route = match path {
            "/healthz" => Some(Route::Healthz),
            "/metrics" => Some(Route::parse_metrics(query)?),
            "/info" => Some(Route::Info),
            "/feedback" => Some(Route::Feedback),
            "/retrain" => Some(Route::Retrain),
            _ => None,
        };
        if let Some(route) = route {
            let allowed = match route {
                Route::Feedback | Route::Retrain => "POST",
                _ => "GET",
            };
            if method != allowed {
                return Err(RouteError::new(405, "method not allowed for this route"));
            }
            return Ok(route);
        }
        if let Some(user_str) = path.strip_prefix("/recommend/") {
            if method != "GET" {
                return Err(RouteError::new(405, "method not allowed for this route"));
            }
            let Ok(user) = user_str.parse::<u32>() else {
                return Err(RouteError::new(400, format!("bad user id {user_str:?}")));
            };
            let k = match query.iter().find(|(name, _)| name == "k") {
                None => None,
                Some((_, raw)) => match raw.parse::<usize>() {
                    Ok(k) if k <= MAX_K => Some(k),
                    _ => return Err(RouteError::new(400, format!("bad k {raw:?}"))),
                },
            };
            return Ok(Route::Recommend { user, k });
        }
        Err(RouteError::new(404, format!("no route for {path}")))
    }

    /// `/metrics` query handling: `?format=json|prom` (default json)
    /// and `?window=SECS` (positive whole seconds).
    fn parse_metrics(query: &[(String, String)]) -> Result<Route, RouteError> {
        let format = match query.iter().find(|(name, _)| name == "format") {
            None => MetricsFormat::Json,
            Some((_, raw)) => match raw.as_str() {
                "json" => MetricsFormat::Json,
                "prom" => MetricsFormat::Prom,
                _ => return Err(RouteError::new(400, format!("bad format {raw:?}"))),
            },
        };
        let window = match query.iter().find(|(name, _)| name == "window") {
            None => None,
            Some((_, raw)) => match raw.parse::<u32>() {
                Ok(secs) if secs > 0 => Some(secs),
                _ => return Err(RouteError::new(400, format!("bad window {raw:?}"))),
            },
        };
        Ok(Route::Metrics { format, window })
    }

    /// Fast routes are answered inline on the event loop (snapshot
    /// reads); slow ones are offloaded to the worker set.
    pub fn is_fast(&self) -> bool {
        !matches!(self, Route::Feedback | Route::Retrain)
    }

    /// Stable label value for the `serve_requests` metric family (one
    /// per variant — bounded cardinality by construction).
    pub fn label(&self) -> &'static str {
        match self {
            Route::Healthz => "healthz",
            Route::Metrics { .. } => "metrics",
            Route::Info => "info",
            Route::Feedback => "feedback",
            Route::Retrain => "retrain",
            Route::Recommend { .. } => "recommend",
        }
    }
}

/// A routed response: status + JSON body, tagged with the snapshot
/// generation that answered (for the access log).
///
/// Most responses are JSON; `raw` overrides the body with pre-rendered
/// text (the Prometheus exposition) under a non-JSON content type.
#[derive(Debug)]
pub struct AppResponse {
    pub status: u16,
    pub body: Json,
    /// Pre-rendered non-JSON body; when set, `body` is `Json::Null`.
    pub raw: Option<String>,
    pub content_type: &'static str,
    pub generation: u64,
    /// Admission outcome of a judged `POST /feedback` (None for every
    /// other route and for feedback rejected before judging). Carried
    /// into the access log so defense decisions are auditable offline.
    pub feedback: Option<FeedbackOutcome>,
}

/// What the admission section decided about one feedback request,
/// snapshot under the admission lock (so `pending` and
/// `pending_before` bracket exactly this request's effect, even under
/// concurrent clients).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FeedbackOutcome {
    /// Dominant verdict label: `"admit"` when everything offered was
    /// admitted, otherwise the most frequent rejection verdict
    /// (severity order `flag` > `rate_limit` > `throttle` on ties).
    pub verdict: &'static str,
    /// Judging detector (`"none"` when the server runs undefended).
    pub detector: &'static str,
    /// Trajectories offered in the request body.
    pub offered: u64,
    /// Trajectories actually enqueued (0 on a 409).
    pub accepted: u64,
    /// Queued feedback before this request.
    pub pending_before: u64,
    /// Queued feedback after this request; always
    /// `pending_before + accepted` — rejected feedback never
    /// increments a queue.
    pub pending: u64,
}

impl AppResponse {
    fn ok(body: Json, generation: u64) -> Self {
        Self {
            status: 200,
            body,
            raw: None,
            content_type: "application/json",
            generation,
            feedback: None,
        }
    }

    fn text(content_type: &'static str, text: String, generation: u64) -> Self {
        Self {
            status: 200,
            body: Json::Null,
            raw: Some(text),
            content_type,
            generation,
            feedback: None,
        }
    }

    pub(crate) fn error(status: u16, message: impl Into<String>, generation: u64) -> Self {
        Self {
            status,
            body: Json::obj().field("error", message.into()),
            raw: None,
            content_type: "application/json",
            generation,
            feedback: None,
        }
    }

    /// The wire body: the raw text when set, the rendered JSON
    /// otherwise.
    pub fn render_body(&self) -> String {
        match &self.raw {
            Some(text) => text.clone(),
            None => self.body.render(),
        }
    }
}

/// The access-log label for a judged feedback request: `"admit"` when
/// nothing was rejected, otherwise the most frequent rejection verdict
/// (ties break by severity: flag, then rate_limit, then throttle).
fn dominant_verdict(tally: &VerdictCounts) -> &'static str {
    let mut best = (0u64, Verdict::Admit);
    for (count, verdict) in [
        (tally.flagged, Verdict::Flag),
        (tally.rate_limited, Verdict::RateLimit),
        (tally.throttled, Verdict::Throttle),
    ] {
        if count > best.0 {
            best = (count, verdict);
        }
    }
    best.1.label()
}

/// What the admission lock guards.
struct Admission {
    /// Feedback admitted but not yet retrained, in admission order. Its
    /// length is what the attacker budget caps.
    pending: Vec<Trajectory>,
    /// Optional layered online defense judging every trajectory at
    /// admission. Judged **under the admission lock** so the stack's
    /// state transitions follow the global admission order — the
    /// invariant that keeps a defended wire run bit-identical to the
    /// in-process [`recsys::defense::DefendedSystem`] path.
    defense: Option<DefenseStack>,
}

/// Shared server state: the system under attack plus serving-side
/// buffers. All methods take `&self`; the struct is `Sync`.
pub struct RecApp {
    system: BlackBoxSystem,
    /// The live generation; a retrain swaps in the next one. Held only
    /// to clone or replace the `Arc`.
    snapshot: Mutex<Arc<RankerSnapshot>>,
    admission: Mutex<Admission>,
    /// Serializes retrains: each consumes one seed ordinal, so their
    /// order must be total even under concurrent `POST /retrain`.
    retrain: Mutex<()>,
    /// Per-item popularity (catalog order), frozen at construction —
    /// the reference the popularity drift detector scores against.
    popularity: Vec<f64>,
    /// CUSUM over each trajectory's mean clicked-item popularity
    /// (attack sessions skew cold/target-heavy — see defense.rs).
    pop_drift: Arc<telemetry::DriftDetector>,
    /// CUSUM over per-user (per-trajectory) click counts.
    rate_drift: Arc<telemetry::DriftDetector>,
    /// Windowed trajectory arrivals: the live feedback ingest rate.
    feedback_rate: Arc<telemetry::WindowedCounter>,
}

impl RecApp {
    /// Wraps a fitted system, publishing its clean generation-0
    /// snapshot. `defense` judges every incoming trajectory at
    /// admission.
    pub fn new(system: BlackBoxSystem, defense: Option<DefenseStack>) -> Self {
        let snapshot = Arc::new(system.clean_snapshot());
        let popularity: Vec<f64> = system
            .public_info()
            .popularity
            .iter()
            .map(|&p| f64::from(p))
            .collect();
        Self {
            system,
            snapshot: Mutex::new(snapshot),
            admission: Mutex::new(Admission {
                pending: Vec::new(),
                defense,
            }),
            retrain: Mutex::new(()),
            popularity,
            pop_drift: telemetry::stream::detector(
                "serve_feedback_pop_drift",
                telemetry::CusumConfig::default(),
            ),
            rate_drift: telemetry::stream::detector(
                "serve_feedback_rate_drift",
                telemetry::CusumConfig::default(),
            ),
            feedback_rate: telemetry::stream::windowed_counter("serve_feedback_trajectories"),
        }
    }

    /// Always 1: the app serves from one snapshot cell and one
    /// admission queue. Kept because the repository benchmark prints it
    /// in its workload fingerprint.
    pub fn n_shards(&self) -> usize {
        1
    }

    /// The generation currently being served.
    pub fn generation(&self) -> u64 {
        self.snapshot.lock().unwrap().generation()
    }

    /// The snapshot currently being served, kept alive for as long as
    /// the caller holds it.
    fn current(&self) -> Arc<RankerSnapshot> {
        Arc::clone(&self.snapshot.lock().unwrap())
    }

    /// The wrapped system (tests compare against its in-process path).
    pub fn system(&self) -> &BlackBoxSystem {
        &self.system
    }

    /// Verdict tally of the embedded defense stack (zeros when
    /// undefended). Wire-side experiments read detection
    /// precision/recall off this ledger.
    pub fn defense_counts(&self) -> VerdictCounts {
        self.admission
            .lock()
            .unwrap()
            .defense
            .as_ref()
            .map_or_else(VerdictCounts::default, DefenseStack::counts)
    }

    /// Routes one parsed request: [`Route::parse`] then
    /// [`RecApp::dispatch`]. Never blocks on a retrain for read paths;
    /// never panics on client input (panics that do escape are the
    /// *server's* bugs, and the connection layer converts them to
    /// 500s).
    pub fn handle(&self, req: &Request) -> AppResponse {
        match Route::parse(&req.method, &req.path, &req.query) {
            Ok(route) => self.dispatch(&route, &req.body),
            Err(err) => AppResponse::error(err.status, err.message, self.generation()),
        }
    }

    /// Handles one typed route. `body` is consulted only by
    /// [`Route::Feedback`].
    pub fn dispatch(&self, route: &Route, body: &[u8]) -> AppResponse {
        match route {
            Route::Healthz => self.healthz(),
            Route::Metrics { format, window } => self.metrics(*format, *window),
            Route::Info => self.info(),
            Route::Feedback => self.feedback(body),
            Route::Retrain => self.retrain(),
            Route::Recommend { user, k } => self.recommend(*user, *k),
        }
    }

    fn healthz(&self) -> AppResponse {
        let generation = self.generation();
        AppResponse::ok(
            Json::obj()
                .field("ok", true)
                .field("generation", generation),
            generation,
        )
    }

    /// The global registry in one scrape, as either the JSON document
    /// (windowed views under a `"stream"` key) or Prometheus text.
    fn metrics(&self, format: MetricsFormat, window: Option<u32>) -> AppResponse {
        let snapshot = telemetry::metrics::snapshot(window.map(f64::from));
        match format {
            MetricsFormat::Json => AppResponse::ok(snapshot.to_json(), self.generation()),
            MetricsFormat::Prom => AppResponse::text(
                "text/plain; version=0.0.4",
                telemetry::prom::render(&snapshot),
                self.generation(),
            ),
        }
    }

    /// The experimenter-side disclosure: everything an in-process
    /// attack reads off the system object, as one document.
    fn info(&self) -> AppResponse {
        let cfg = self.system.config();
        let info = self.system.public_info();
        let generation = self.generation();
        let body = Json::obj()
            .field("num_items", info.num_items)
            .field(
                "target_items",
                Json::Arr(info.target_items.iter().map(|&i| Json::from(i)).collect()),
            )
            .field(
                "popularity",
                Json::Arr(info.popularity.iter().map(|&p| Json::from(p)).collect()),
            )
            .field(
                "eval_users",
                Json::Arr(
                    self.system
                        .protocol()
                        .eval_users()
                        .iter()
                        .map(|&u| Json::from(u))
                        .collect(),
                ),
            )
            .field(
                "config",
                Json::obj()
                    .field("eval_users", cfg.eval_users)
                    .field("top_k", cfg.top_k)
                    .field("n_candidates", cfg.n_candidates)
                    .field("seed", cfg.seed)
                    .field("reserve_attackers", cfg.reserve_attackers),
            )
            .field("ranker", self.system.ranker_name())
            .field("generation", generation)
            .field("observations_spent", self.system.observations_spent())
            .field(
                "defense",
                match &self.admission.lock().unwrap().defense {
                    Some(stack) => Json::obj()
                        .field("detector", stack.detector_name())
                        .field("kind", stack.kind_label())
                        .field("fpr", stack.fpr())
                        .field("threshold", stack.threshold())
                        .field("level", stack.level())
                        .field("reputation", stack.reputation())
                        .field("alarms", stack.alarms()),
                    None => Json::Null,
                },
            );
        AppResponse::ok(body, generation)
    }

    fn recommend(&self, user: u32, k: Option<usize>) -> AppResponse {
        let snap = self.current();
        let generation = snap.generation();
        let k = k.unwrap_or(self.system.config().top_k);
        if !snap.knows_user(user) {
            return AppResponse::error(404, format!("unknown user {user}"), generation);
        }
        let items = snap.recommend_k(self.system.protocol(), self.system.base(), user, k);
        telemetry::metrics::counter("serve_recommendations_total").inc();
        AppResponse::ok(
            Json::obj()
                .field("user", user)
                .field("k", k)
                .field("generation", generation)
                .field(
                    "items",
                    Json::Arr(items.into_iter().map(Json::from).collect()),
                ),
            generation,
        )
    }

    /// Admits trajectories into the pending queue. The whole batch is
    /// validated before any of it is admitted, so a 4xx/409 response
    /// means the queue is untouched.
    fn feedback(&self, body: &[u8]) -> AppResponse {
        let generation = self.generation();
        let Ok(text) = std::str::from_utf8(body) else {
            return AppResponse::error(400, "body is not UTF-8", generation);
        };
        let Ok(doc) = json::parse(text) else {
            return AppResponse::error(400, "body is not valid JSON", generation);
        };
        let Some(Json::Arr(rows)) = doc.get("trajectories") else {
            return AppResponse::error(400, "missing \"trajectories\" array", generation);
        };
        // Valid ids span the full catalog: organic items *plus* the
        // appended target items (ids `num_items..catalog`).
        let num_items = u64::from(self.system.base().catalog());
        let mut parsed: Vec<Trajectory> = Vec::with_capacity(rows.len());
        for row in rows {
            let Json::Arr(items) = row else {
                return AppResponse::error(400, "trajectory is not an array", generation);
            };
            let mut traj = Vec::with_capacity(items.len());
            for item in items {
                match item.as_u64() {
                    Some(i) if i < num_items => traj.push(i as u32),
                    Some(i) => {
                        return AppResponse::error(
                            400,
                            format!("item {i} outside catalog of {num_items}"),
                            generation,
                        );
                    }
                    None => {
                        return AppResponse::error(400, "non-integer item id", generation);
                    }
                }
            }
            parsed.push(traj);
        }

        // Streaming plane: observe the *offered* stream (pre-defense,
        // pre-admission) so the drift detectors see what an attacker
        // sends, not what survives filtering. Observation only — no
        // effect on admission, ordering, or any RNG, so the over-the-
        // wire replay stays bit-identical to the in-process path.
        self.observe_feedback_stream(&parsed);

        // One admission section: defense verdicts, budget check, and
        // the queue append. Judging happens *under the lock* because
        // every verdict advances the defense stack's state — the global
        // admission order must be the judging order for wire runs to
        // stay bit-identical to the in-process defended path. A 409
        // rolls the stack back to its pre-request state, so a refused
        // request judges nothing.
        let budget = u64::from(self.system.config().reserve_attackers);
        let offered = parsed.len() as u64;
        let mut admission = self.admission.lock().unwrap();
        let Admission { pending, defense } = &mut *admission;
        let pending_before = pending.len() as u64;
        let rollback = defense.as_ref().map(DefenseStack::state_bytes);
        let detector = defense.as_ref().map_or("none", DefenseStack::detector_name);
        let before = defense
            .as_ref()
            .map_or_else(VerdictCounts::default, DefenseStack::counts);

        let mut admitted: Vec<Trajectory> = Vec::with_capacity(parsed.len());
        // One verdict per trajectory, committed to the metrics plane
        // only if the whole request is admitted.
        let mut judged: Vec<Verdict> = Vec::with_capacity(parsed.len());
        for traj in parsed {
            let verdict = match defense.as_mut() {
                None => Verdict::Admit,
                Some(stack) => stack.judge(self.system.base(), &traj),
            };
            judged.push(verdict);
            if verdict == Verdict::Admit {
                admitted.push(traj);
            }
        }
        let tally = {
            let after = defense
                .as_ref()
                .map_or_else(VerdictCounts::default, DefenseStack::counts);
            VerdictCounts {
                admitted: after.admitted - before.admitted,
                flagged: after.flagged - before.flagged,
                rate_limited: after.rate_limited - before.rate_limited,
                throttled: after.throttled - before.throttled,
            }
        };
        let would_hold = pending_before + admitted.len() as u64;
        if would_hold > budget {
            if let (Some(stack), Some(rollback)) = (defense.as_mut(), rollback.as_deref()) {
                stack
                    .restore_state(rollback)
                    .expect("own state bytes round-trip");
            }
            drop(admission);
            let mut refused = AppResponse::error(
                409,
                format!(
                    "attacker budget exhausted: {pending_before} pending + {} new > {budget} reserved",
                    admitted.len()
                ),
                generation,
            );
            refused.feedback = Some(FeedbackOutcome {
                verdict: dominant_verdict(&tally),
                detector,
                offered,
                accepted: 0,
                pending_before,
                pending: pending_before,
            });
            return refused;
        }
        let accepted = admitted.len() as u64;
        pending.extend(admitted);
        drop(admission);

        // Metrics are a pure side channel, so they commit after the
        // admission section: a rolled-back 409 leaves no trace, and
        // the exported verdict counts always match the stack's ledger.
        let verdicts =
            telemetry::stream::counter_family("serve_feedback_verdicts", &["detector", "verdict"]);
        for verdict in &judged {
            verdicts.add(&[detector, verdict.label()], 1);
        }
        if tally.flagged > 0 {
            telemetry::metrics::counter("serve_feedback_flagged_total").add(tally.flagged);
        }

        let mut resp = AppResponse::ok(
            Json::obj()
                .field("accepted", accepted)
                .field("flagged", tally.flagged)
                .field("rate_limited", tally.rate_limited)
                .field("throttled", tally.throttled)
                .field("pending", would_hold),
            generation,
        );
        resp.feedback = Some(FeedbackOutcome {
            verdict: dominant_verdict(&tally),
            detector,
            offered,
            accepted,
            pending_before,
            pending: would_hold,
        });
        resp
    }

    /// Feeds the feedback drift detectors and the windowed ingest
    /// counter. `serve_feedback_pop_drift` watches each trajectory's
    /// mean clicked-item popularity (target-hammering sessions drag it
    /// down); `serve_feedback_rate_drift` watches per-user click
    /// counts. Their state is published via `/metrics` — the hook the
    /// adaptive defense (ROADMAP item 3) will calibrate from.
    fn observe_feedback_stream(&self, parsed: &[Trajectory]) {
        if !telemetry::stream::enabled() || parsed.is_empty() {
            return;
        }
        self.feedback_rate.add(parsed.len() as u64);
        for traj in parsed {
            if traj.is_empty() {
                continue;
            }
            let sum: f64 = traj
                .iter()
                .map(|&i| self.popularity.get(i as usize).copied().unwrap_or(0.0))
                .sum();
            self.pop_drift.observe(sum / traj.len() as f64);
            self.rate_drift.observe(traj.len() as f64);
        }
    }

    /// Takes the pending queue into a fresh generation and publishes
    /// it. Readers of the old generation are never blocked; feedback
    /// arriving mid-retrain lands in the *next* generation. The queue
    /// is already in admission order, which is what keeps replays
    /// bit-identical to the in-process path.
    fn retrain(&self) -> AppResponse {
        let _order = self.retrain.lock().unwrap();
        let poison = std::mem::take(&mut self.admission.lock().unwrap().pending);
        let ingested = poison.len() as u64;
        let snap = self.system.retrain_snapshot(&poison);
        let generation = snap.generation();
        let seed = snap.seed();
        let old = std::mem::replace(&mut *self.snapshot.lock().unwrap(), Arc::new(snap));
        // Released outside the snapshot lock: if no reader still holds
        // the old generation, this frees it.
        drop(old);
        telemetry::metrics::counter("serve_retrains_total").inc();
        AppResponse::ok(
            Json::obj()
                .field("generation", generation)
                .field("seed", seed)
                .field("ingested", ingested),
            generation,
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::http::{Limits, RequestParser};
    use recsys::data::Dataset;
    use recsys::rankers::ItemPop;
    use recsys::system::SystemConfig;
    use std::sync::atomic::{AtomicBool, Ordering};

    pub(crate) fn app() -> RecApp {
        let histories = (0..40u32)
            .map(|u| (0..6).map(|t| (u * 3 + t * 7) % 60).collect())
            .collect();
        let data = Dataset::from_histories("toy", histories, 60, 8);
        let system = BlackBoxSystem::build(
            data,
            Box::new(ItemPop::new()),
            SystemConfig {
                eval_users: 16,
                reserve_attackers: 8,
                ..SystemConfig::default()
            },
        );
        RecApp::new(system, None)
    }

    fn get(app: &RecApp, target: &str) -> AppResponse {
        request(app, "GET", target, "")
    }

    fn request(app: &RecApp, method: &str, target: &str, body: &str) -> AppResponse {
        let raw = format!(
            "{method} {target} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let mut parser = RequestParser::new(Limits::default());
        parser.push(raw.as_bytes());
        let req = parser.next_request().unwrap().unwrap();
        app.handle(&req)
    }

    #[test]
    fn route_parse_is_the_single_status_authority() {
        let q = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
            pairs
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect()
        };
        assert_eq!(Route::parse("GET", "/healthz", &[]), Ok(Route::Healthz));
        assert_eq!(Route::parse("POST", "/feedback", &[]), Ok(Route::Feedback));
        assert_eq!(
            Route::parse("GET", "/recommend/7", &q(&[("k", "5")])),
            Ok(Route::Recommend {
                user: 7,
                k: Some(5)
            })
        );
        assert_eq!(
            Route::parse("GET", "/recommend/7", &[]),
            Ok(Route::Recommend { user: 7, k: None })
        );
        // 405: known path, wrong method.
        for (method, path) in [
            ("POST", "/healthz"),
            ("DELETE", "/feedback"),
            ("GET", "/retrain"),
            ("POST", "/recommend/3"),
        ] {
            assert_eq!(Route::parse(method, path, &[]).unwrap_err().status, 405);
        }
        // 400: malformed parameters.
        assert_eq!(
            Route::parse("GET", "/recommend/banana", &[])
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            Route::parse("GET", "/recommend/1", &q(&[("k", "banana")]))
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            Route::parse("GET", "/recommend/1", &q(&[("k", "99999")]))
                .unwrap_err()
                .status,
            400
        );
        // 404: unknown path.
        assert_eq!(Route::parse("GET", "/nope", &[]).unwrap_err().status, 404);
        // /metrics query handling.
        assert_eq!(
            Route::parse("GET", "/metrics", &[]),
            Ok(Route::Metrics {
                format: MetricsFormat::Json,
                window: None
            })
        );
        assert_eq!(
            Route::parse(
                "GET",
                "/metrics",
                &q(&[("format", "prom"), ("window", "10")])
            ),
            Ok(Route::Metrics {
                format: MetricsFormat::Prom,
                window: Some(10)
            })
        );
        for bad in [
            q(&[("format", "xml")]),
            q(&[("window", "0")]),
            q(&[("window", "-3")]),
            q(&[("window", "soon")]),
        ] {
            assert_eq!(
                Route::parse("GET", "/metrics", &bad).unwrap_err().status,
                400
            );
        }
    }

    #[test]
    fn metrics_renders_both_formats() {
        let app = app();
        let json = get(&app, "/metrics");
        assert_eq!(json.status, 200);
        assert_eq!(json.content_type, "application/json");
        assert!(
            json.body.get("stream").is_some(),
            "JSON scrape carries the stream plane"
        );

        let prom = get(&app, "/metrics?format=prom");
        assert_eq!(prom.status, 200);
        assert!(prom.content_type.starts_with("text/plain"));
        let text = prom.render_body();
        // RecApp::new registers these in the global stream registry,
        // so they are present regardless of which tests ran before.
        assert!(
            text.contains("# TYPE serve_feedback_pop_drift gauge"),
            "text:\n{text}"
        );
        assert!(
            text.contains("serve_feedback_trajectories_rate{window=\"60\"}"),
            "text:\n{text}"
        );
        // The windowed views narrow with ?window=.
        let narrow = get(&app, "/metrics?format=prom&window=5");
        assert!(narrow
            .render_body()
            .contains("serve_feedback_trajectories_rate{window=\"5\"}"));

        let bad = get(&app, "/metrics?format=xml");
        assert_eq!(bad.status, 400);
    }

    #[test]
    fn route_classification_for_the_event_loop() {
        assert!(Route::Healthz.is_fast());
        assert!(Route::Recommend { user: 1, k: None }.is_fast());
        assert!(!Route::Feedback.is_fast());
        assert!(!Route::Retrain.is_fast());
    }

    #[test]
    fn healthz_and_info_describe_the_clean_system() {
        let app = app();
        let health = get(&app, "/healthz");
        assert_eq!(health.status, 200);
        assert_eq!(
            health.body.get("generation").and_then(Json::as_u64),
            Some(0)
        );

        let info = get(&app, "/info");
        assert_eq!(info.status, 200);
        assert_eq!(
            info.body.get("ranker").and_then(Json::as_str),
            Some("ItemPop")
        );
        assert_eq!(
            info.body
                .get("config")
                .and_then(|c| c.get("reserve_attackers"))
                .and_then(Json::as_u64),
            Some(8)
        );
    }

    #[test]
    fn recommend_serves_the_protocol_lists() {
        let app = app();
        let user = app.system().protocol().eval_users()[0];
        let resp = get(&app, &format!("/recommend/{user}"));
        assert_eq!(resp.status, 200);
        let Some(Json::Arr(items)) = resp.body.get("items") else {
            panic!("items missing");
        };
        assert_eq!(items.len(), app.system().config().top_k);

        let small = get(&app, &format!("/recommend/{user}?k=3"));
        let Some(Json::Arr(prefix)) = small.body.get("items") else {
            panic!("items missing");
        };
        assert_eq!(prefix.as_slice(), &items[..3]);
    }

    #[test]
    fn recommend_rejects_unknown_users_and_bad_k() {
        let app = app();
        assert_eq!(get(&app, "/recommend/9999").status, 404);
        assert_eq!(get(&app, "/recommend/banana").status, 400);
        assert_eq!(get(&app, "/recommend/0?k=banana").status, 400);
    }

    #[test]
    fn unknown_routes_and_wrong_methods() {
        let app = app();
        assert_eq!(get(&app, "/nope").status, 404);
        assert_eq!(request(&app, "POST", "/healthz", "").status, 405);
        assert_eq!(request(&app, "DELETE", "/feedback", "").status, 405);
    }

    #[test]
    fn feedback_validates_and_buffers() {
        let app = app();
        let bad = request(&app, "POST", "/feedback", "{\"trajectories\":[[999]]}");
        assert_eq!(bad.status, 400, "item outside catalog");
        let ok = request(&app, "POST", "/feedback", "{\"trajectories\":[[1,2],[3]]}");
        assert_eq!(ok.status, 200);
        assert_eq!(ok.body.get("accepted").and_then(Json::as_u64), Some(2));
        assert_eq!(ok.body.get("pending").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn feedback_over_budget_is_409_and_untouched() {
        let app = app();
        let fill = "{\"trajectories\":[[1],[1],[1],[1],[1],[1],[1],[1]]}";
        assert_eq!(request(&app, "POST", "/feedback", fill).status, 200);
        let over = request(&app, "POST", "/feedback", "{\"trajectories\":[[2]]}");
        assert_eq!(over.status, 409);
        // Retrain drains the buffer; budget frees up.
        assert_eq!(request(&app, "POST", "/retrain", "").status, 200);
        let again = request(&app, "POST", "/feedback", "{\"trajectories\":[[2]]}");
        assert_eq!(again.status, 200);
    }

    #[test]
    fn retrain_matches_the_in_process_observation_stream() {
        let histories = (0..40u32)
            .map(|u| (0..6).map(|t| (u * 3 + t * 7) % 60).collect())
            .collect();
        let data = Dataset::from_histories("toy", histories, 60, 8);
        let cfg = SystemConfig {
            eval_users: 16,
            reserve_attackers: 8,
            ..SystemConfig::default()
        };
        let reference = BlackBoxSystem::build(data.clone(), Box::new(ItemPop::new()), cfg.clone());
        let target = reference.public_info().target_items[0];
        // Distinct trajectories so any order scramble would change the
        // fine-tune input.
        let poison: Vec<Vec<u32>> = (0..4u32)
            .map(|i| {
                let mut t = vec![target; 5];
                t.push(i);
                t
            })
            .collect();
        let expected = reference.observe(&poison);

        let app = RecApp::new(
            BlackBoxSystem::build(data, Box::new(ItemPop::new()), cfg),
            None,
        );
        let body = format!(
            "{{\"trajectories\":[{}]}}",
            poison
                .iter()
                .map(|t| format!(
                    "[{}]",
                    t.iter()
                        .map(|i| i.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                ))
                .collect::<Vec<_>>()
                .join(",")
        );
        assert_eq!(request(&app, "POST", "/feedback", &body).status, 200);
        let retrain = request(&app, "POST", "/retrain", "");
        assert_eq!(retrain.status, 200);
        assert_eq!(
            retrain.body.get("seed").and_then(Json::as_u64),
            Some(expected.seed),
            "served retrain must consume the same seed stream"
        );
        assert_eq!(
            retrain.body.get("generation").and_then(Json::as_u64),
            Some(1)
        );

        // Count target hits over the served lists: must equal the
        // in-process observation's RecNum.
        let mut rec_num = 0u32;
        let targets = app.system().public_info().target_items;
        for &user in app.system().protocol().eval_users() {
            let resp = get(&app, &format!("/recommend/{user}"));
            let Some(Json::Arr(items)) = resp.body.get("items") else {
                panic!("items missing");
            };
            rec_num += items
                .iter()
                .filter_map(Json::as_u64)
                .filter(|&i| targets.contains(&(i as u32)))
                .count() as u32;
        }
        assert_eq!(rec_num, expected.rec_num);
    }

    #[test]
    fn snapshot_cell_serves_monotone_generations_and_frees_replaced_ones() {
        const ROUNDS: u64 = 6;
        let app = app();
        let user = app.system().protocol().eval_users()[0];
        let route = Route::Recommend { user, k: None };
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        let mut last = 0;
                        let mut reads = 0u64;
                        while !done.load(Ordering::Acquire) || reads == 0 {
                            let resp = app.dispatch(&route, &[]);
                            assert_eq!(resp.status, 200);
                            assert!(resp.generation >= last, "generation went backwards");
                            last = resp.generation;
                            reads += 1;
                        }
                        last
                    })
                })
                .collect();
            for round in 0..ROUNDS {
                let body = format!("{{\"trajectories\":[[{round}],[{}]]}}", round + 1);
                assert_eq!(request(&app, "POST", "/feedback", &body).status, 200);
                assert_eq!(app.dispatch(&Route::Retrain, &[]).status, 200);
            }
            done.store(true, Ordering::Release);
            for reader in readers {
                assert!(reader.join().unwrap() <= ROUNDS);
            }
        });
        assert_eq!(app.generation(), ROUNDS);

        // A reader holding the old generation across a publish keeps
        // reading it; the cell already serves the new one.
        let held = app.current();
        assert_eq!(app.dispatch(&Route::Retrain, &[]).status, 200);
        assert_eq!(held.generation(), ROUNDS);
        let items = held.recommend_k(app.system().protocol(), app.system().base(), user, 3);
        assert_eq!(items.len(), 3);
        assert_eq!(app.generation(), ROUNDS + 1);
        drop(held);

        // With no reader left, the replaced generation is freed by the
        // publish itself.
        let replaced = Arc::downgrade(&app.current());
        assert_eq!(app.dispatch(&Route::Retrain, &[]).status, 200);
        assert!(replaced.upgrade().is_none(), "replaced generation leaked");
        assert_eq!(app.generation(), ROUNDS + 2);
    }

    #[test]
    fn online_defense_drops_flagged_feedback_at_the_door() {
        let histories = (0..60u32)
            .map(|u| (0..8).map(|t| (u + t * 3) % 40).collect())
            .collect();
        let data = Dataset::from_histories("d", histories, 200, 8);
        let stack = DefenseStack::build(recsys::defense::DefenseKind::Lof, &data, 0.05);
        let system = BlackBoxSystem::build(
            data,
            Box::new(ItemPop::new()),
            SystemConfig {
                eval_users: 16,
                reserve_attackers: 8,
                ..SystemConfig::default()
            },
        );
        let app = RecApp::new(system, stack);
        // A blatant burst is flagged; an organic-looking one passes.
        let resp = request(
            &app,
            "POST",
            "/feedback",
            "{\"trajectories\":[[5,5,5,5,5,5],[1,4,7,10,13,16]]}",
        );
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body.get("accepted").and_then(Json::as_u64), Some(1));
        assert_eq!(resp.body.get("flagged").and_then(Json::as_u64), Some(1));
        let info = get(&app, "/info");
        assert_eq!(
            info.body
                .get("defense")
                .and_then(|d| d.get("detector"))
                .and_then(Json::as_str),
            Some("lof")
        );
    }
}
