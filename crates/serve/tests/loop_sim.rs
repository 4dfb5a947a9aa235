//! A seeded simulator for the sans-io serve loop ([`serve::LoopCore`]).
//!
//! Each schedule gives the core an in-memory network and a virtual
//! clock. From the seed it draws the clients — fragmented or whole
//! sends, pipelined or one request at a time, some that half-close
//! after their last request, some that stall half-way through one,
//! some that reset while a slow request is in flight — plus the
//! connection ceiling, write quanta and would-blocks, completion
//! delays, scripted handler panics, failing accepts (EMFILE) and the
//! moment of shutdown. The simulated driver follows the real one: it
//! accepts while the core is accepting, reads while the core wants to,
//! runs every action the core returns, answers fast routes inline and
//! slow ones after a delay, and ticks after every step with a virtual
//! `now` that advances by at most [`TICK`].
//!
//! Every schedule checks:
//! * every request fed to the core is answered exactly once, in order
//!   (except on connections that reset);
//! * `accepted == completed` after the drain, up to the requests lost
//!   on reset connections;
//! * open connections never exceed `max_conns`;
//! * a stalled half-request is cut no earlier than `DRAIN_GRACE` after
//!   its last progress, and within one tick after that;
//! * a scripted panic answers 500 and its connection then serves 200s;
//! * a completion for a torn-down connection is dropped;
//! * a paused accept re-arms exactly after a teardown or a timed-out
//!   wait.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;
use std::time::{Duration, Instant};

use serve::{Action, Interest, Limits, LoopCore, Route, DRAIN_GRACE};

/// The most virtual time one loop iteration may take: the real
/// driver's wait timeout while draining.
const TICK: Duration = Duration::from_millis(20);

/// Schedules per run of [`seeded_schedules_keep_every_invariant`].
const SCHEDULES: u64 = 256;

/// Steps allowed after shutdown before the drain counts as livelocked.
const DRAIN_STEPS: usize = 20_000;

/// The payload of a scripted handler panic.
const SCRIPTED: &str = "scripted handler panic";

/// splitmix64: tiny, seedable, and the same on every platform.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Not yet connected, or waiting in the listen backlog.
    Waiting,
    Open(u64),
    /// Hung up at the door (ceiling) — never a token.
    Refused,
    Closed,
}

struct Client {
    /// Every request's bytes, back to back, and each request's end.
    stream: Vec<u8>,
    ends: Vec<usize>,
    /// Request ids (echoed in 200 bodies) and which ones panic.
    ids: Vec<u32>,
    panics: Vec<bool>,
    pipelined: bool,
    /// Half-close once every request is sent.
    eof_after: bool,
    /// Sends only this many bytes of the stream, ending mid-request.
    stall_at: Option<usize>,
    /// Resets when a slow request is in flight.
    resets: bool,
    connect_at: Duration,
    state: State,
    /// Bytes handed to the network, and how many the core has read.
    sent: usize,
    fed: usize,
    eof_sent: bool,
    eof_fed: bool,
    /// Virtual time of the core's last progress on this connection.
    progress_at: Duration,
    /// Bytes the core wrote back.
    received: Vec<u8>,
    /// Requests dispatched so far: the ordinal of the next one.
    dispatched: usize,
    reset_due: bool,
    was_reset: bool,
}

impl Client {
    fn limit(&self) -> usize {
        self.stall_at.unwrap_or(self.stream.len())
    }

    /// Requests whose every byte reached the core.
    fn fed_requests(&self) -> usize {
        self.ends.iter().filter(|&&end| end <= self.fed).count()
    }

    /// The core holds part of a request.
    fn fed_partial(&self) -> bool {
        self.fed > 0 && !self.ends.contains(&self.fed)
    }

    /// How far the client may send now: everything when pipelined,
    /// else up to the end of the first unanswered request.
    fn send_limit(&self) -> usize {
        let limit = self.limit();
        if self.pipelined {
            return limit;
        }
        let answered = parse_responses(&self.received).len();
        self.ends.get(answered).map_or(limit, |&end| end.min(limit))
    }
}

/// `(status, body)` of every complete response in `bytes`.
fn parse_responses(bytes: &[u8]) -> Vec<(u16, String)> {
    let mut out = Vec::new();
    let mut rest = bytes;
    while let Some(head_end) = rest.windows(4).position(|w| w == b"\r\n\r\n") {
        let head = std::str::from_utf8(&rest[..head_end]).expect("ascii head");
        let status = head[9..12].parse().expect("status code");
        let len: usize = head
            .lines()
            .find_map(|line| line.strip_prefix("Content-Length: "))
            .expect("content length")
            .parse()
            .expect("numeric length");
        let body_start = head_end + 4;
        if rest.len() < body_start + len {
            break;
        }
        let body = String::from_utf8(rest[body_start..body_start + len].to_vec()).expect("utf8");
        out.push((status, body));
        rest = &rest[body_start + len..];
    }
    out
}

fn request_bytes(id: u32, slow: bool) -> Vec<u8> {
    if slow {
        let body = id.to_string();
        format!(
            "POST /feedback HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    } else {
        format!("GET /recommend/{id} HTTP/1.1\r\n\r\n").into_bytes()
    }
}

/// The stub handler: echoes the request id, or panics when scripted —
/// contained into a 500 exactly as the server's `compute` does.
fn handle(route: &Result<Route, serve::RouteError>, body: &[u8], panics: bool) -> (u16, String) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if panics {
            std::panic::panic_any(SCRIPTED);
        }
        match route {
            Ok(Route::Recommend { user, .. }) => *user,
            Ok(Route::Feedback) => std::str::from_utf8(body)
                .expect("utf8 id")
                .parse()
                .expect("numeric id"),
            other => panic!("unexpected route {other:?}"),
        }
    }));
    match outcome {
        Ok(id) => (200, format!("{{\"id\":{id}}}")),
        Err(_) => (500, "{\"error\":\"internal error\"}".to_string()),
    }
}

/// Silences scripted panics only; every other panic still reports.
fn quiet_scripted_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<&str>() != Some(&SCRIPTED) {
                default(info);
            }
        }));
    });
}

struct Pending {
    due: Duration,
    token: u64,
    status: u16,
    body: String,
}

struct Sim {
    rng: Rng,
    core: LoopCore,
    base: Instant,
    now: Duration,
    clients: Vec<Client>,
    by_token: BTreeMap<u64, usize>,
    backlog: VecDeque<usize>,
    interest: BTreeMap<u64, Interest>,
    pending: Vec<Pending>,
    max_conns: usize,
    emfile_percent: u64,
    would_block_percent: u64,
    shutdown_at: Duration,
    draining: bool,
    /// An accept failed and no teardown or timed-out wait came since.
    paused: bool,
    lost: u64,
    trace: Vec<String>,
}

impl Sim {
    fn new(seed: u64) -> Self {
        let mut rng = Rng(seed);
        let max_conns = 1 + rng.below(6) as usize;
        let n_clients = 1 + rng.below(9) as usize;
        let panic_percent = [0, 10, 25][rng.below(3) as usize];
        let mut next_id = 0u32;
        let clients = (0..n_clients)
            .map(|_| {
                let slow_percent = [0, 30, 100][rng.below(3) as usize];
                let n = 1 + rng.below(5) as usize;
                let mut stream = Vec::new();
                let mut ends = Vec::new();
                let mut ids = Vec::new();
                let mut panics = Vec::new();
                for _ in 0..n {
                    next_id += 1;
                    stream.extend(request_bytes(next_id, rng.chance(slow_percent)));
                    ends.push(stream.len());
                    ids.push(next_id);
                    panics.push(rng.chance(panic_percent));
                }
                let kind = rng.below(10);
                let stall_at = (kind == 0).then(|| {
                    let last_start = ends.len().checked_sub(2).map_or(0, |i| ends[i]);
                    last_start + 1 + rng.below((stream.len() - last_start - 1) as u64) as usize
                });
                Client {
                    stream,
                    ends,
                    ids,
                    panics,
                    pipelined: rng.chance(50),
                    eof_after: kind == 1 || kind == 2,
                    stall_at,
                    resets: kind == 3,
                    connect_at: Duration::from_millis(rng.below(300)),
                    state: State::Waiting,
                    sent: 0,
                    fed: 0,
                    eof_sent: false,
                    eof_fed: false,
                    progress_at: Duration::ZERO,
                    received: Vec::new(),
                    dispatched: 0,
                    reset_due: false,
                    was_reset: false,
                }
            })
            .collect();
        Sim {
            core: LoopCore::new(Limits::default(), max_conns),
            base: Instant::now(),
            now: Duration::ZERO,
            clients,
            by_token: BTreeMap::new(),
            backlog: VecDeque::new(),
            interest: BTreeMap::new(),
            pending: Vec::new(),
            max_conns,
            emfile_percent: [0, 0, 30][rng.below(3) as usize],
            would_block_percent: [0, 20, 60][rng.below(3) as usize],
            shutdown_at: Duration::from_millis(50 + rng.below(1500)),
            draining: false,
            paused: false,
            lost: 0,
            trace: Vec::new(),
            rng,
        }
    }

    /// Connections the core has accepted and not yet closed.
    fn open(&self) -> usize {
        let open = |c: &Client| matches!(c.state, State::Open(_));
        self.clients.iter().filter(|c| open(c)).count()
    }

    fn at(&self) -> Instant {
        self.base + self.now
    }

    fn log(&mut self, what: String) {
        let line = format!("{:>9}us {what}", self.now.as_micros());
        self.trace.push(line);
    }

    /// Runs every queued action, as the driver does after each input.
    /// Returns whether a connection closed.
    fn run_actions(&mut self) -> bool {
        let mut closed = false;
        while let Some(action) = self.core.next_action() {
            match action {
                Action::Listen(on) => {
                    self.log(format!("listen {on}"));
                    assert_eq!(on, self.core.accepting());
                }
                Action::Interest(token, interest) => {
                    self.log(format!("interest {token} {interest:?}"));
                    self.interest.insert(token, interest);
                }
                Action::Dispatch {
                    token,
                    inbound,
                    route,
                    inline,
                } => {
                    let c = self.by_token[&token];
                    let panics = self.clients[c].panics[self.clients[c].dispatched];
                    self.clients[c].dispatched += 1;
                    let (status, body) = handle(&route, &inbound.request.body, panics);
                    self.log(format!(
                        "dispatch {token} {} inline={inline} status={status}",
                        inbound.request.path
                    ));
                    assert_eq!(inline, route.as_ref().map_or(true, Route::is_fast));
                    if inline {
                        assert!(self.core.respond(token, status, "application/json", &body));
                    } else {
                        let delay = 1 + self.rng.below(3 * TICK.as_micros() as u64);
                        self.pending.push(Pending {
                            due: self.now + Duration::from_micros(delay),
                            token,
                            status,
                            body,
                        });
                        if self.clients[c].resets {
                            self.clients[c].reset_due = true;
                        }
                    }
                }
                Action::Rejected { token, status } => {
                    panic!("well-formed traffic was rejected: {token} {status}")
                }
                Action::Write(token) => {
                    self.log(format!("write {token}"));
                    self.write(token);
                }
                Action::Close(token) => {
                    self.log(format!("close {token}"));
                    self.close(token);
                    closed = true;
                }
            }
        }
        closed
    }

    fn write(&mut self, token: u64) {
        let c = self.by_token[&token];
        while let Some(out) = self.core.output(token) {
            if self.rng.chance(self.would_block_percent) {
                self.core.write_blocked(token);
                return;
            }
            let n = 1 + self.rng.below(out.len() as u64) as usize;
            self.clients[c].received.extend_from_slice(&out[..n]);
            self.clients[c].progress_at = self.now;
            self.core.written(token, n, self.at());
        }
    }

    fn close(&mut self, token: u64) {
        let c = self.by_token[&token];
        let client = &self.clients[c];
        assert!(
            self.draining || client.eof_fed || client.was_reset,
            "connection {token} closed before shutdown without EOF or reset"
        );
        // A draining response closes its connection whatever follows
        // it; any other close of a half-request is the grace cut.
        let closing_response = client
            .received
            .windows(17)
            .any(|w| w == b"Connection: close");
        if self.draining && client.fed_partial() && !closing_response && !client.was_reset {
            let stalled = self.now - client.progress_at;
            assert!(
                stalled > DRAIN_GRACE,
                "half-request on {token} cut after {stalled:?}, inside the {DRAIN_GRACE:?} grace"
            );
            assert!(
                stalled <= DRAIN_GRACE + TICK,
                "half-request on {token} cut {stalled:?} after its last progress, over a tick late"
            );
            self.log(format!("cut {token}"));
        }
        self.clients[c].state = State::Closed;
        self.interest.remove(&token);
    }

    /// One loop iteration: inputs in a seeded order, then the tick.
    fn step(&mut self) {
        self.now += Duration::from_micros(self.rng.below(TICK.as_micros() as u64 + 1));
        let mut activity = false;
        let mut closed = false;

        // Connects queue in the backlog; resets fire before any
        // completion for them can be due.
        for c in 0..self.clients.len() {
            if self.clients[c].state == State::Waiting
                && self.clients[c].connect_at <= self.now
                && !self.backlog.contains(&c)
            {
                self.backlog.push_back(c);
            }
            if let (State::Open(token), true) = (self.clients[c].state, self.clients[c].reset_due) {
                self.clients[c].reset_due = false;
                self.clients[c].was_reset = true;
                self.log(format!("reset {token}"));
                self.core.close(token);
                closed |= self.run_actions();
                activity = true;
            }
        }

        // Clients put bytes (or EOF) on the wire.
        for c in 0..self.clients.len() {
            let client = &mut self.clients[c];
            if !matches!(client.state, State::Open(_)) || client.was_reset {
                continue;
            }
            let limit = client.send_limit();
            if client.sent < limit && self.rng.chance(60) {
                let n = 1 + self.rng.below((limit - client.sent) as u64) as usize;
                let n = if self.rng.chance(50) {
                    limit - client.sent
                } else {
                    n
                };
                client.sent += n;
            } else if client.eof_after && client.sent == client.stream.len() {
                client.eof_sent = true;
            }
        }

        // The listener: level-triggered while the backlog is non-empty.
        while self.core.accepting() && !self.backlog.is_empty() {
            activity = true;
            if self.rng.chance(self.emfile_percent) {
                self.log("accept EMFILE".into());
                self.core.accept_failed();
                self.paused = true;
                assert!(!self.core.accepting(), "a failed accept pauses accepting");
                // Only a teardown after the pause re-arms it.
                closed = self.run_actions();
                break;
            }
            let c = self.backlog.pop_front().expect("non-empty");
            match self.core.accept(self.at()) {
                Some(token) => {
                    self.log(format!("accept client {c} as {token}"));
                    self.clients[c].state = State::Open(token);
                    self.clients[c].progress_at = self.now;
                    self.by_token.insert(token, c);
                    self.interest.insert(token, Interest::READ);
                }
                None => {
                    assert_eq!(self.open(), self.max_conns, "refused below the ceiling");
                    self.log(format!("refuse client {c}"));
                    self.clients[c].state = State::Refused;
                }
            }
            assert!(self.open() <= self.max_conns);
        }

        // Readable connections, in a seeded order.
        let mut tokens: Vec<u64> = self.by_token.keys().copied().collect();
        for i in (1..tokens.len()).rev() {
            tokens.swap(i, self.rng.below(i as u64 + 1) as usize);
        }
        for token in tokens {
            let c = self.by_token[&token];
            if self.clients[c].state != State::Open(token) || !self.rng.chance(70) {
                continue;
            }
            while self.core.wants_read(token) {
                let client = &mut self.clients[c];
                if client.fed < client.sent {
                    let n = 1 + self.rng.below((client.sent - client.fed) as u64) as usize;
                    let bytes = client.stream[client.fed..client.fed + n].to_vec();
                    client.fed += n;
                    client.progress_at = self.now;
                    self.core.received(token, &bytes, self.at());
                } else if client.eof_sent && !client.eof_fed {
                    client.eof_fed = true;
                    self.log(format!("eof {token}"));
                    self.core.received(token, &[], self.at());
                } else {
                    break;
                }
                activity = true;
                closed |= self.run_actions();
            }
            if self.interest.get(&token).is_some_and(|i| i.writable) && self.rng.chance(70) {
                self.core.flush(token);
                activity = true;
                closed |= self.run_actions();
            }
        }

        // Completions whose handler has finished.
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].due > self.now || !self.rng.chance(80) {
                i += 1;
                continue;
            }
            let done = self.pending.swap_remove(i);
            activity = true;
            let c = self.by_token[&done.token];
            let delivered =
                self.core
                    .respond(done.token, done.status, "application/json", &done.body);
            self.log(format!("complete {} delivered={delivered}", done.token));
            if delivered {
                closed |= self.run_actions();
            } else {
                assert!(
                    self.clients[c].was_reset,
                    "completion dropped on a live connection"
                );
                assert!(
                    self.core.next_action().is_none(),
                    "a dropped completion queued actions"
                );
            }
        }

        if self.now >= self.shutdown_at && !self.draining {
            self.draining = true;
            self.log("shutdown".into());
            self.core.begin_drain();
            closed |= self.run_actions();
        }

        self.core.tick(self.at(), !activity);
        closed |= self.run_actions();
        if self.paused && (closed || !activity) {
            self.paused = false;
            assert!(
                self.draining || self.core.accepting(),
                "a teardown or a timed-out wait re-arms a paused accept"
            );
        }
        assert!(
            !self.core.accepting() || !self.paused,
            "accept re-armed with no teardown or timed-out wait"
        );
        assert!(self.open() <= self.max_conns);
    }

    /// Runs the schedule to a finished drain; returns the action trace.
    fn run(mut self) -> Vec<String> {
        while !self.draining {
            self.step();
        }
        let mut steps = 0;
        while !self.core.is_done() {
            steps += 1;
            assert!(
                steps < DRAIN_STEPS,
                "drain never finished:\n{}",
                self.trace.join("\n")
            );
            self.step();
        }
        self.check_ledger();
        self.trace
    }

    fn check_ledger(&mut self) {
        let mut fed_total = 0u64;
        let mut answered_total = 0u64;
        for client in &self.clients {
            let responses = parse_responses(&client.received);
            let fed = client.fed_requests();
            fed_total += fed as u64;
            answered_total += responses.len() as u64;
            if client.was_reset {
                self.lost += (fed - responses.len()) as u64;
            } else {
                assert_eq!(
                    responses.len(),
                    fed,
                    "every request fed to the core is answered exactly once"
                );
            }
            for (k, (status, body)) in responses.iter().enumerate() {
                if client.panics[k] {
                    assert_eq!(*status, 500, "a scripted panic answers 500");
                } else {
                    assert_eq!(*status, 200, "after a panic the connection serves 200s");
                    assert_eq!(body, &format!("{{\"id\":{}}}", client.ids[k]), "in order");
                }
            }
        }
        let ledger = self.core.ledger();
        assert_eq!(ledger.accepted, fed_total);
        assert_eq!(ledger.completed, answered_total);
        assert_eq!(
            ledger.accepted,
            ledger.completed + self.lost,
            "accepted == completed after a graceful drain, but for resets"
        );
    }
}

#[test]
fn seeded_schedules_keep_every_invariant() {
    quiet_scripted_panics();
    let mut seen = BTreeMap::<&str, usize>::new();
    for seed in 0..SCHEDULES {
        let trace = catch_unwind(|| Sim::new(seed).run()).unwrap_or_else(|panic| {
            eprintln!("schedule seed {seed} failed");
            std::panic::resume_unwind(panic)
        });
        for event in [
            "cut",
            "reset",
            "delivered=false",
            "status=500",
            "EMFILE",
            "refuse",
            "eof",
            "interest",
        ] {
            *seen.entry(event).or_default() += trace.iter().filter(|l| l.contains(event)).count();
        }
    }
    // The schedules must reach every rule they claim to check.
    for (event, count) in &seen {
        assert!(
            *count >= 8,
            "only {count} `{event}` events in {SCHEDULES} schedules"
        );
    }
    eprintln!("{seen:?}");
}

#[test]
fn one_seed_replays_to_the_same_action_trace() {
    quiet_scripted_panics();
    for seed in [3, 17, 101] {
        let first = Sim::new(seed).run();
        assert!(!first.is_empty());
        assert_eq!(
            first,
            Sim::new(seed).run(),
            "seed {seed} replayed differently"
        );
    }
}

/// The fd-limit spin: a failed accept disarms the listener, a wait with
/// activity keeps it disarmed, and the next timed-out wait or teardown
/// re-arms it.
#[test]
fn a_failed_accept_pauses_until_a_teardown_or_a_timed_out_wait() {
    let base = Instant::now();
    let mut core = LoopCore::new(Limits::default(), 8);
    let token = core.accept(base).expect("below the ceiling");
    assert!(core.next_action().is_none());

    core.accept_failed();
    assert!(matches!(core.next_action(), Some(Action::Listen(false))));
    assert!(!core.accepting());
    core.tick(base, false);
    assert!(!core.accepting(), "a wait that saw events does not re-arm");
    core.tick(base, true);
    assert!(matches!(core.next_action(), Some(Action::Listen(true))));
    assert!(core.accepting());

    core.accept_failed();
    assert!(matches!(core.next_action(), Some(Action::Listen(false))));
    core.close(token);
    assert!(matches!(core.next_action(), Some(Action::Close(t)) if t == token));
    assert!(matches!(core.next_action(), Some(Action::Listen(true))));
    assert!(core.accepting());

    core.accept_failed();
    core.begin_drain();
    core.tick(base, true);
    assert!(!core.accepting(), "a draining loop never re-arms");
}

/// A request pipelined behind `Connection: close` on one connection:
/// the core dispatches only the first, writes exactly one response,
/// and closes; the second request is never accepted. Both requests
/// arrive in one read, and the driver reads no further.
#[test]
fn nothing_is_answered_after_a_close_request() {
    let base = Instant::now();
    let mut core = LoopCore::new(Limits::default(), 8);
    let token = core.accept(base).expect("below the ceiling");
    core.received(
        token,
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\nGET /info HTTP/1.1\r\n\r\n",
        base,
    );
    assert!(!core.wants_read(token), "nothing after the close is read");
    let mut received = Vec::new();
    let mut dispatched = Vec::new();
    let mut closed = false;
    while let Some(action) = core.next_action() {
        match action {
            Action::Dispatch { inbound, .. } => {
                dispatched.push(inbound.request.path.clone());
                assert!(core.respond(token, 200, "application/json", "{}"));
            }
            Action::Write(t) => {
                let out = core.output(t).expect("pending output").to_vec();
                received.extend_from_slice(&out);
                core.written(t, out.len(), base);
            }
            Action::Close(t) => {
                assert_eq!(t, token);
                closed = true;
            }
            Action::Interest(..) | Action::Listen(..) => {}
            Action::Rejected { status, .. } => panic!("rejected with {status}"),
        }
    }
    assert_eq!(dispatched, ["/healthz"]);
    let responses = parse_responses(&received);
    assert_eq!(responses.len(), 1, "exactly one response");
    assert!(received.windows(17).any(|w| w == b"Connection: close"));
    assert!(closed, "the connection closes after the one response");
    let ledger = core.ledger();
    assert_eq!((ledger.accepted, ledger.completed), (1, 1));
}
