//! The sans-io serve loop (DESIGN.md §5f): every decision the loop
//! makes, with no socket, no poller and no clock.
//!
//! [`LoopCore`] owns the connection table — one [`Connection`] machine
//! per token, its interest, whether the peer sent EOF, and its last
//! byte-level progress — plus the `max_conns` ceiling, the accepting
//! flag and the drain rule. A driver feeds it what happened (an accept,
//! bytes or EOF, a count of written bytes, a response, the current
//! `now`) and runs the [`Action`]s it queues: set interest, dispatch a
//! request inline or offloaded, write, close. The driver computes every
//! response and feeds it back through [`LoopCore::respond`], so the
//! core never holds an app and a test can drive it with a stub handler
//! under a virtual clock.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use telemetry::json::Json;

use crate::app::{Route, RouteError};
use crate::conn::{Connection, Inbound};
use crate::http::Limits;
use crate::poll::Interest;
use crate::ShutdownStats;

/// How long a half-received request may keep a draining connection
/// alive, bounding shutdown latency against clients that stall
/// mid-request.
pub const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// What the driver must do next, in the order the core queued it.
#[derive(Debug)]
pub enum Action {
    /// Arm (`true`) or disarm the listener's read interest.
    Listen(bool),
    /// Change a connection's registered interest.
    Interest(u64, Interest),
    /// Compute the response to `inbound` — on the loop thread when
    /// `inline`, on a worker otherwise — and hand it to
    /// [`LoopCore::respond`].
    Dispatch {
        token: u64,
        inbound: Inbound,
        route: Result<Route, RouteError>,
        inline: bool,
    },
    /// A parse error was answered with `status`; the connection closes
    /// once it is written. Outside the request ledger.
    Rejected { token: u64, status: u16 },
    /// Write [`LoopCore::output`] until it is empty or would block.
    Write(u64),
    /// Drop the connection's socket.
    Close(u64),
}

struct Slot {
    machine: Connection,
    interest: Interest,
    /// Peer half-closed its write side; serve what's queued, then go.
    eof: bool,
    /// Last byte-level progress, for the drain grace.
    last_progress: Instant,
}

pub struct LoopCore {
    conns: BTreeMap<u64, Slot>,
    actions: VecDeque<Action>,
    limits: Limits,
    max_conns: usize,
    next_token: u64,
    /// The listener's read interest is armed.
    listening: bool,
    /// An accept failed (say EMFILE); re-armed after the next teardown
    /// or the next timed-out wait.
    paused: bool,
    draining: bool,
    accepted: u64,
    completed: u64,
}

impl LoopCore {
    /// A core whose listener starts armed; connection tokens start at 1
    /// (the driver keeps 0 for the listener).
    pub fn new(limits: Limits, max_conns: usize) -> Self {
        Self {
            conns: BTreeMap::new(),
            actions: VecDeque::new(),
            limits,
            max_conns: max_conns.max(1),
            next_token: 1,
            listening: true,
            paused: false,
            draining: false,
            accepted: 0,
            completed: 0,
        }
    }

    /// The next action for the driver to run.
    pub fn next_action(&mut self) -> Option<Action> {
        self.actions.pop_front()
    }

    /// The driver should keep accepting.
    pub fn accepting(&self) -> bool {
        self.listening
    }

    /// A new connection arrived: its token (registered for reads), or
    /// `None` at the ceiling — the driver hangs up at the door.
    pub fn accept(&mut self, now: Instant) -> Option<u64> {
        if self.conns.len() >= self.max_conns {
            return None;
        }
        let token = self.next_token;
        self.next_token += 1;
        self.conns.insert(
            token,
            Slot {
                machine: Connection::new(self.limits),
                interest: Interest::READ,
                eof: false,
                last_progress: now,
            },
        );
        Some(token)
    }

    /// An accept failed with something other than `WouldBlock`: pause
    /// accepting, so a level-triggered listener that stays readable (a
    /// full fd table) cannot spin the loop.
    pub fn accept_failed(&mut self) {
        self.paused = true;
        self.listen(false);
    }

    /// The connection is still reading.
    pub fn wants_read(&self, token: u64) -> bool {
        self.conns
            .get(&token)
            .is_some_and(|slot| !slot.eof && !slot.machine.is_closing())
    }

    /// Bytes read off the connection. An empty read is EOF: the peer
    /// half-closed, so answer what is queued, then close.
    pub fn received(&mut self, token: u64, bytes: &[u8], now: Instant) {
        let Some(slot) = self.conns.get_mut(&token) else {
            return;
        };
        if bytes.is_empty() {
            slot.eof = true;
        } else {
            slot.last_progress = now;
            self.accepted += slot.machine.feed(bytes).accepted as u64;
        }
        self.service(token);
        self.flush(token);
    }

    /// Bytes the driver should write next, if any.
    pub fn output(&self, token: u64) -> Option<&[u8]> {
        let slot = self.conns.get(&token)?;
        slot.machine
            .wants_write()
            .then(|| slot.machine.pending_output())
    }

    /// The transport took `n` bytes of [`LoopCore::output`].
    pub fn written(&mut self, token: u64, n: usize, now: Instant) {
        let Some(slot) = self.conns.get_mut(&token) else {
            return;
        };
        slot.last_progress = now;
        self.completed += slot.machine.advance_write(n);
        if !slot.machine.wants_write() {
            self.flush(token);
        }
    }

    /// The transport would block: wait for writability.
    pub fn write_blocked(&mut self, token: u64) {
        self.set_interest(token, Interest::READ_WRITE);
    }

    /// The response to the connection's dispatched request. Returns
    /// false — and drops it — when the connection is already gone.
    pub fn respond(&mut self, token: u64, status: u16, content_type: &str, body: &str) -> bool {
        let Some(slot) = self.conns.get_mut(&token) else {
            return false;
        };
        slot.machine
            .push_response_with(status, content_type, body, self.draining);
        self.service(token);
        self.flush(token);
        true
    }

    /// Stop accepting; from now on [`LoopCore::tick`] retires idle and
    /// stalled connections and every response closes its connection.
    pub fn begin_drain(&mut self) {
        self.draining = true;
        self.listen(false);
    }

    /// Draining and every connection is gone: the loop may exit.
    pub fn is_done(&self) -> bool {
        self.draining && self.conns.is_empty()
    }

    /// Called after every wait. A wait that timed out re-arms a paused
    /// accept; while draining, idle connections close and a half-sent
    /// request is cut once it made no progress for [`DRAIN_GRACE`].
    pub fn tick(&mut self, now: Instant, timed_out: bool) {
        if timed_out {
            self.paused = false;
            self.listen(true);
        }
        if !self.draining {
            return;
        }
        let doomed: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, slot)| {
                slot.machine.is_idle()
                    || (slot.machine.buffered_partial() > 0
                        && !slot.machine.in_flight()
                        && now.duration_since(slot.last_progress) > DRAIN_GRACE)
            })
            .map(|(&token, _)| token)
            .collect();
        for token in doomed {
            self.close(token);
        }
    }

    /// Requests parsed so far against responses fully written.
    pub fn ledger(&self) -> ShutdownStats {
        ShutdownStats {
            accepted: self.accepted,
            completed: self.completed,
        }
    }

    /// Dispatches the next request, or answers a due parse error. The
    /// machine keeps at most one request in flight per connection.
    fn service(&mut self, token: u64) {
        let Some(slot) = self.conns.get_mut(&token) else {
            return;
        };
        if let Some(err) = slot.machine.take_due_error() {
            let body = Json::obj().field("error", err.reason().to_string());
            slot.machine
                .push_error_response(err.status(), &body.render());
            self.actions.push_back(Action::Rejected {
                token,
                status: err.status(),
            });
        } else if let Some(inbound) = slot.machine.take_request() {
            let req = &inbound.request;
            let route = Route::parse(&req.method, &req.path, &req.query);
            let inline = route.as_ref().map_or(true, Route::is_fast);
            self.actions.push_back(Action::Dispatch {
                token,
                inbound,
                route,
                inline,
            });
        }
    }

    /// Queues a write while output is pending; otherwise drops write
    /// interest and closes the connection once its machine is done.
    /// The driver calls it when the connection turns writable.
    pub fn flush(&mut self, token: u64) {
        let Some(slot) = self.conns.get_mut(&token) else {
            return;
        };
        if slot.machine.wants_write() {
            self.actions.push_back(Action::Write(token));
        } else if slot.machine.should_close_now() || (slot.eof && !slot.machine.in_flight()) {
            self.close(token);
        } else {
            self.set_interest(token, Interest::READ);
        }
    }

    fn set_interest(&mut self, token: u64, interest: Interest) {
        if let Some(slot) = self.conns.get_mut(&token) {
            if slot.interest != interest {
                slot.interest = interest;
                self.actions.push_back(Action::Interest(token, interest));
            }
        }
    }

    fn listen(&mut self, on: bool) {
        let on = on && !self.paused && !self.draining;
        if on != self.listening {
            self.listening = on;
            self.actions.push_back(Action::Listen(on));
        }
    }

    /// Tears the connection down now (the driver: on a transport
    /// error).
    pub fn close(&mut self, token: u64) {
        if self.conns.remove(&token).is_some() {
            self.actions.push_back(Action::Close(token));
            self.paused = false;
            self.listen(true);
        }
    }
}
