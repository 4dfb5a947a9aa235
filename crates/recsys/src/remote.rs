//! [`RemoteSystem`]: the PR-1 observation API spoken **over the wire**.
//!
//! Where [`crate::system::BlackBoxSystem`] is attacked in-process,
//! `RemoteSystem` is a client for a served instance (the workspace's
//! `serve` crate): it implements [`ObservableSystem`], so
//! `PoisonRecTrainer` drives it unchanged — the realistic threat model
//! where the attacker only touches the system's query interface.
//!
//! One observation maps onto three endpoint interactions:
//!
//! 1. `POST /feedback` — inject the candidate poison trajectories;
//! 2. `POST /retrain`  — the server drains the pending feedback,
//!    fine-tunes off its own observation seed stream, and publishes a
//!    new generation (the response carries the generation and seed);
//! 3. `GET /recommend/{user}?k=` per evaluation user — the client
//!    counts target hits itself, reconstructing `RecNum`.
//!
//! Because the server consumes the *same* `seed_for_ordinal` stream as
//! the in-process system and serves recommendations through the same
//! snapshot read path, the observed RecNum/reward trajectories are
//! bit-identical to the in-process run (`tests/serve_attack.rs`).
//!
//! The experimenter-side knowledge an in-process attack reads directly
//! (`SystemConfig`, evaluation users, ranker name) is fetched once
//! from `GET /info` at connection time.
//!
//! Everything here is hand-rolled over [`std::net::TcpStream`] — the
//! workspace has no HTTP dependency. [`HttpClient`] is deliberately
//! public: the bench load generator and the integration tests reuse it
//! as their traffic source.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use telemetry::json::{self, Json};

use crate::data::{ItemId, Trajectory, UserId};
use crate::system::{ConfigError, ObservableSystem, Observation, PublicInfo, SystemConfig};

/// Anything that can go wrong talking to a served system.
#[derive(Debug)]
pub enum RemoteError {
    /// Socket-level failure (connect, read, write).
    Io(std::io::Error),
    /// The bytes on the wire were not the protocol we speak.
    Protocol(String),
    /// The server answered with a non-2xx status.
    Status { status: u16, body: String },
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Io(err) => write!(f, "remote io error: {err}"),
            RemoteError::Protocol(msg) => write!(f, "remote protocol error: {msg}"),
            RemoteError::Status { status, body } => {
                write!(f, "remote server returned {status}: {body}")
            }
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<std::io::Error> for RemoteError {
    fn from(err: std::io::Error) -> Self {
        RemoteError::Io(err)
    }
}

/// A minimal blocking HTTP/1.1 client: one keep-alive connection,
/// JSON bodies, `Content-Length` framing. Reconnects transparently
/// when the server closed an idle connection.
pub struct HttpClient {
    addr: String,
    stream: Option<BufReader<TcpStream>>,
    read_timeout: Duration,
    /// TCP connections dialed over this client's lifetime.
    dials: u64,
}

impl HttpClient {
    /// A client for `addr` (`host:port`). Connection is lazy: the
    /// first request dials.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            stream: None,
            read_timeout: Duration::from_secs(30),
            dials: 0,
        }
    }

    /// Connections dialed so far — with healthy keep-alive this stays
    /// at 1 no matter how many requests flow.
    pub fn dials(&self) -> u64 {
        self.dials
    }

    /// Overrides the per-response read timeout (default 30 s).
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    fn ensure_connected(&mut self) -> Result<&mut BufReader<TcpStream>, RemoteError> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(self.read_timeout))?;
            self.stream = Some(BufReader::new(stream));
            self.dials += 1;
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// Sends one request and reads one response. `body` is serialized
    /// as JSON when present. Returns the status code and parsed JSON
    /// body (every endpoint of the served system answers JSON).
    ///
    /// A send failure on a *reused* connection (the server idle-closed
    /// it) reconnects and retries once; a failure after the request
    /// reached a fresh connection is surfaced, never retried — a
    /// replayed `POST /retrain` would consume a second seed ordinal.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<(u16, Json), RemoteError> {
        let (status, text) = self.request_text(method, path, body)?;
        let parsed = json::parse(&text)
            .map_err(|err| RemoteError::Protocol(format!("unparseable body ({err}): {text}")))?;
        Ok((status, parsed))
    }

    /// Like [`HttpClient::request`] but returns the response body as
    /// raw text — for endpoints that answer non-JSON payloads, e.g.
    /// `GET /metrics?format=prom` (Prometheus text exposition).
    pub fn request_text(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<(u16, String), RemoteError> {
        let reused = self.stream.is_some();
        match self.try_request(method, path, body) {
            Err(RemoteError::Io(err)) if reused => {
                // Stale keep-alive connection: dial fresh and retry.
                let _ = err;
                self.stream = None;
                self.try_request(method, path, body)
            }
            other => other,
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<(u16, String), RemoteError> {
        let rendered = body.map(|b| b.render());
        let payload = rendered.as_deref().unwrap_or("");
        let reader = self.ensure_connected()?;
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n{}\r\n",
            payload.len(),
            if body.is_some() {
                "Content-Type: application/json\r\n"
            } else {
                ""
            }
        );
        let stream = reader.get_mut();
        stream.write_all(request.as_bytes())?;
        stream.write_all(payload.as_bytes())?;
        stream.flush()?;

        let result = Self::read_response(reader);
        if result.is_err() {
            // Never reuse a connection in an unknown framing state.
            self.stream = None;
        }
        let (status, close, text) = result?;
        if close {
            self.stream = None;
        }
        Ok((status, text))
    }

    /// Parses one `Content-Length`-framed response off the connection.
    /// Returns (status, connection-close, body text).
    fn read_response(
        reader: &mut BufReader<TcpStream>,
    ) -> Result<(u16, bool, String), RemoteError> {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(RemoteError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before status line",
            )));
        }
        let mut parts = line.trim_end().splitn(3, ' ');
        let version = parts.next().unwrap_or("");
        if !version.starts_with("HTTP/1.") {
            return Err(RemoteError::Protocol(format!("bad status line: {line:?}")));
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| RemoteError::Protocol(format!("bad status line: {line:?}")))?;

        let mut content_length = 0usize;
        let mut close = false;
        loop {
            let mut header = String::new();
            if reader.read_line(&mut header)? == 0 {
                return Err(RemoteError::Protocol("truncated response headers".into()));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(RemoteError::Protocol(format!("bad header: {header:?}")));
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => {
                    content_length = value.parse().map_err(|_| {
                        RemoteError::Protocol(format!("bad content-length: {value:?}"))
                    })?;
                }
                "connection" => close = value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        let text = String::from_utf8(body)
            .map_err(|_| RemoteError::Protocol("response body is not UTF-8".into()))?;
        Ok((status, close, text))
    }
}

fn expect_u64(value: &Json, field: &str) -> Result<u64, RemoteError> {
    value
        .get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| RemoteError::Protocol(format!("missing numeric field {field:?}")))
}

fn expect_u32_list(value: &Json, field: &str) -> Result<Vec<u32>, RemoteError> {
    let Some(Json::Arr(items)) = value.get(field) else {
        return Err(RemoteError::Protocol(format!(
            "missing array field {field:?}"
        )));
    };
    items
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| RemoteError::Protocol(format!("non-u32 entry in {field:?}")))
        })
        .collect()
}

/// A served black-box system, observed over a socket. Implements
/// [`ObservableSystem`], so the trainer cannot tell it from the
/// in-process [`crate::system::BlackBoxSystem`] — by construction it
/// returns bit-identical observations.
pub struct RemoteSystem {
    client: Mutex<HttpClient>,
    cfg: SystemConfig,
    info: PublicInfo,
    targets: HashSet<ItemId>,
    eval_users: Vec<UserId>,
    ranker: String,
    /// Mirror of the server's seed-stream position, advanced by each
    /// retrain response (the server is the authority; this lets
    /// `observations_spent` answer without a round trip).
    observed: AtomicU64,
}

impl RemoteSystem {
    /// Dials `addr` and fetches `GET /info` — the experimenter-side
    /// disclosure (config, evaluation users, ranker name) an
    /// in-process attack would read off the system object directly.
    pub fn connect(addr: impl Into<String>) -> Result<Self, RemoteError> {
        let mut client = HttpClient::new(addr);
        let (status, info) = client.request("GET", "/info", None)?;
        if status != 200 {
            return Err(RemoteError::Status {
                status,
                body: info.render(),
            });
        }
        let Some(cfg_json) = info.get("config") else {
            return Err(RemoteError::Protocol("missing config object".into()));
        };
        let cfg = SystemConfig {
            eval_users: expect_u64(cfg_json, "eval_users")? as usize,
            top_k: expect_u64(cfg_json, "top_k")? as usize,
            n_candidates: expect_u64(cfg_json, "n_candidates")? as usize,
            seed: expect_u64(cfg_json, "seed")?,
            reserve_attackers: expect_u64(cfg_json, "reserve_attackers")? as u32,
        };
        let target_items = expect_u32_list(&info, "target_items")?;
        let public = PublicInfo {
            num_items: expect_u64(&info, "num_items")? as u32,
            target_items: target_items.clone(),
            popularity: expect_u32_list(&info, "popularity")?,
        };
        let eval_users = expect_u32_list(&info, "eval_users")?;
        let ranker = info
            .get("ranker")
            .and_then(Json::as_str)
            .ok_or_else(|| RemoteError::Protocol("missing ranker name".into()))?
            .to_string();
        let observed = expect_u64(&info, "observations_spent")?;
        Ok(Self {
            client: Mutex::new(client),
            cfg,
            info: public,
            targets: target_items.into_iter().collect(),
            eval_users,
            ranker,
            observed: AtomicU64::new(observed),
        })
    }

    /// The users the served protocol polls (fetched from `/info`).
    pub fn eval_users(&self) -> &[UserId] {
        &self.eval_users
    }

    fn expect_200(
        client: &mut HttpClient,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<Json, RemoteError> {
        let (status, value) = client.request(method, path, body)?;
        if status != 200 {
            return Err(RemoteError::Status {
                status,
                body: value.render(),
            });
        }
        Ok(value)
    }

    /// One full over-the-wire observation: feedback, retrain, poll
    /// every evaluation user, count target hits.
    pub fn observe_remote(&self, poison: &[Trajectory]) -> Result<Observation, RemoteError> {
        let mut client = self.client.lock().unwrap();
        let trajectories = Json::Arr(
            poison
                .iter()
                .map(|traj| Json::Arr(traj.iter().map(|&i| Json::from(i)).collect()))
                .collect(),
        );
        let feedback = Json::obj().field("trajectories", trajectories);
        Self::expect_200(&mut client, "POST", "/feedback", Some(&feedback))?;

        let retrain = Self::expect_200(&mut client, "POST", "/retrain", None)?;
        let generation = expect_u64(&retrain, "generation")?;
        let seed = expect_u64(&retrain, "seed")?;
        self.observed.store(generation, Ordering::Relaxed);

        let k = self.cfg.top_k;
        let mut rec_num = 0u32;
        for &user in &self.eval_users {
            let list = Self::expect_200(
                &mut client,
                "GET",
                &format!("/recommend/{user}?k={k}"),
                None,
            )?;
            let served_generation = expect_u64(&list, "generation")?;
            if served_generation != generation {
                return Err(RemoteError::Protocol(format!(
                    "snapshot superseded mid-observation: retrained generation \
                     {generation} but user {user} was served generation {served_generation}"
                )));
            }
            let items = expect_u32_list(&list, "items")?;
            rec_num += items.iter().filter(|i| self.targets.contains(i)).count() as u32;
        }
        Ok(Observation {
            rec_num,
            seed,
            recommendations: None,
        })
    }
}

impl ObservableSystem for RemoteSystem {
    fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    fn public_info(&self) -> PublicInfo {
        self.info.clone()
    }

    fn ranker_name(&self) -> &str {
        &self.ranker
    }

    fn observations_spent(&self) -> u64 {
        self.observed.load(Ordering::Relaxed)
    }

    /// Resume only lines up against a server whose seed stream already
    /// sits exactly at the checkpoint: the stream lives server-side
    /// and cannot be fast-forwarded from here without consuming it.
    fn restore_observations_spent(&self, spent: u64) -> Result<(), ConfigError> {
        let current = self.observed.load(Ordering::Relaxed);
        if spent != current {
            return Err(ConfigError {
                field: "observations_spent",
                message: format!(
                    "served system has spent {current} observation(s) but the checkpoint \
                     expects {spent}; restart the server or resume elsewhere"
                ),
            });
        }
        Ok(())
    }

    /// Slots are observed **sequentially** — the served system is the
    /// single contended resource, and its seed ordinals are consumed
    /// by retrain order, so client-side fan-out would only race the
    /// stream. Still bit-identical to the in-process batched path,
    /// which pre-assigns the same seeds in the same slot order.
    ///
    /// # Panics
    ///
    /// On transport or protocol errors. The trait returns plain
    /// observations (rewards cannot be "absent" mid-attack); drivers
    /// that want to handle network failure gracefully use
    /// [`RemoteSystem::observe_remote`] directly.
    fn observe_batch(&self, batch: &[&[Trajectory]], _threads: usize) -> Vec<Observation> {
        batch
            .iter()
            .map(|poison| {
                self.observe_remote(poison)
                    .unwrap_or_else(|err| panic!("remote observation failed: {err}"))
            })
            .collect()
    }
}
