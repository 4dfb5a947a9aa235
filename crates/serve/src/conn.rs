//! The sans-io per-connection state machine (DESIGN.md §5f).
//!
//! [`Connection`] owns everything one client connection carries that
//! is *not* a socket: the incremental [`RequestParser`], the inbox of
//! fully-parsed requests awaiting dispatch, the write buffer with its
//! per-response boundaries (so the completed-response ledger can be
//! advanced exactly when a response's last byte reaches the kernel),
//! and the keep-alive/close policy. It never performs I/O — callers
//! feed it bytes read off a transport and drain bytes to write back.
//! [`crate::LoopCore`] keeps one per connection and the one driver
//! over it moves the bytes, so there is one implementation of
//! pipelining, response ordering, parse-error poisoning, and close
//! semantics.
//!
//! ## Dispatch discipline
//!
//! [`Connection::take_request`] hands out at most one request at a
//! time: while a taken request's response has not been pushed back via
//! [`Connection::push_response`], further takes return `None`. That
//! single rule is what keeps pipelined responses in request order even
//! when a slow request is offloaded to a worker — the next pipelined
//! request simply waits in the inbox.
//!
//! ## Close
//!
//! No response follows the one that announces a close. A request that
//! asks for `Connection: close` is the last one parsed: bytes after it
//! are never read as requests (RFC 9112 §9.6), so nothing pipelined
//! behind it is accepted or answered. A close the server forces (the
//! drain) stops parsing too, but first answers the requests already
//! parsed, and the last of those responses carries the close.
//!
//! ## Parse errors
//!
//! A parse error *poisons* the connection (framing past a rejected
//! head is unknowable) but does not jump the queue: requests parsed
//! before the bad bytes are still served, and
//! [`Connection::take_due_error`] releases the error exactly once,
//! after the inbox has drained and no request is in flight. The error
//! response closes the connection; it is **not** counted as a
//! completed request (it was never an accepted one).

use std::collections::VecDeque;
use std::time::Instant;

use crate::http::{self, HttpError, Limits, Request, RequestParser};

/// One parsed request plus the instant it left the parser — the gap to
/// dispatch is the event-loop lag the access log reports.
#[derive(Debug)]
pub struct Inbound {
    pub request: Request,
    pub parsed_at: Instant,
}

/// What one [`Connection::feed`] call produced.
#[derive(Debug)]
pub struct FeedOutcome {
    /// Requests fully parsed off the fed bytes (the accepted ledger).
    pub accepted: usize,
    /// Set when the fed bytes poisoned the parser. The error is *also*
    /// held internally and released by [`Connection::take_due_error`]
    /// once it is this connection's turn to answer it.
    pub error: Option<HttpError>,
}

pub struct Connection {
    parser: RequestParser,
    inbox: VecDeque<Inbound>,
    /// Bytes not yet written to the transport; `cursor` marks how far
    /// the transport has progressed through them.
    outbox: Vec<u8>,
    cursor: usize,
    /// End offsets (in `outbox` coordinates) of ledger-counted
    /// responses; popped as `advance_write` crosses them.
    response_ends: VecDeque<usize>,
    /// A request's response has been taken but not yet pushed.
    in_flight: bool,
    /// No further requests are parsed: one asked for `Connection:
    /// close` (it is then the last in the inbox), or a forced close
    /// waits for the parsed ones. The response that empties the inbox
    /// of a sealed connection closes it.
    sealed: bool,
    /// No further bytes will be read or responses queued once the
    /// outbox drains.
    closing: bool,
    /// Parser hit an error; held until released once, in turn.
    pending_error: Option<HttpError>,
    error_released: bool,
}

impl Connection {
    pub fn new(limits: Limits) -> Self {
        Self {
            parser: RequestParser::new(limits),
            inbox: VecDeque::new(),
            outbox: Vec::new(),
            cursor: 0,
            response_ends: VecDeque::new(),
            in_flight: false,
            sealed: false,
            closing: false,
            pending_error: None,
            error_released: false,
        }
    }

    /// Feeds transport bytes through the parser, moving every complete
    /// request into the inbox. Bytes after a poisoning error are
    /// discarded (framing is untrustworthy), and so are bytes after a
    /// `Connection: close` request.
    pub fn feed(&mut self, bytes: &[u8]) -> FeedOutcome {
        if self.pending_error.is_some() || self.is_closing() {
            return FeedOutcome {
                accepted: 0,
                error: None,
            };
        }
        self.parser.push(bytes);
        let mut accepted = 0;
        loop {
            match self.parser.next_request() {
                Ok(Some(request)) => {
                    accepted += 1;
                    let last = !request.keep_alive;
                    self.inbox.push_back(Inbound {
                        request,
                        parsed_at: Instant::now(),
                    });
                    if last {
                        self.sealed = true;
                        return FeedOutcome {
                            accepted,
                            error: None,
                        };
                    }
                }
                Ok(None) => {
                    return FeedOutcome {
                        accepted,
                        error: None,
                    }
                }
                Err(err) => {
                    self.pending_error = Some(err.clone());
                    return FeedOutcome {
                        accepted,
                        error: Some(err),
                    };
                }
            }
        }
    }

    /// True when a request can be taken right now.
    pub fn has_ready_request(&self) -> bool {
        !self.in_flight && !self.closing && !self.inbox.is_empty()
    }

    /// Pops the next request, if none is already in flight and no
    /// response has announced a close. The caller owes exactly one
    /// [`Connection::push_response`] per take.
    pub fn take_request(&mut self) -> Option<Inbound> {
        if self.in_flight || self.closing {
            return None;
        }
        let inbound = self.inbox.pop_front()?;
        self.in_flight = true;
        Some(inbound)
    }

    /// A taken request is awaiting its response.
    pub fn in_flight(&self) -> bool {
        self.in_flight
    }

    /// Queues the response to the in-flight request. The rendered
    /// response closes the connection when the request asked for it
    /// (`Connection: close`), or when the caller forces a close
    /// (shutdown) and no parsed request is left to answer. A forced
    /// close with requests still queued stops parsing; the last of them
    /// carries the close.
    pub fn push_response(&mut self, status: u16, body: &str, force_close: bool) {
        self.push_response_with(status, "application/json", body, force_close);
    }

    /// [`Connection::push_response`] with an explicit content type
    /// (the Prometheus exposition of `/metrics` is `text/plain`).
    pub fn push_response_with(
        &mut self,
        status: u16,
        content_type: &str,
        body: &str,
        force_close: bool,
    ) {
        debug_assert!(self.in_flight, "response without a taken request");
        self.sealed |= force_close;
        let close = self.sealed && self.inbox.is_empty();
        self.outbox.extend_from_slice(&http::render_response_with(
            status,
            content_type,
            body,
            close,
        ));
        self.response_ends.push_back(self.outbox.len());
        self.in_flight = false;
        if close {
            self.closing = true;
        }
    }

    /// Releases the held parse error exactly once, only after every
    /// earlier request has been answered. The caller must respond with
    /// [`Connection::push_error_response`].
    pub fn take_due_error(&mut self) -> Option<HttpError> {
        if self.error_released || self.in_flight || !self.inbox.is_empty() {
            return None;
        }
        let err = self.pending_error.clone()?;
        self.error_released = true;
        Some(err)
    }

    /// Queues the answer to a released parse error. Always closes; not
    /// counted as a completed response (it was never accepted).
    pub fn push_error_response(&mut self, status: u16, body: &str) {
        self.outbox
            .extend_from_slice(&http::render_response(status, body, true));
        self.closing = true;
    }

    /// Bytes the transport should write next.
    pub fn pending_output(&self) -> &[u8] {
        &self.outbox[self.cursor..]
    }

    pub fn wants_write(&self) -> bool {
        self.cursor < self.outbox.len()
    }

    /// Records that the transport wrote `n` bytes of
    /// [`Connection::pending_output`]; returns how many ledger-counted
    /// responses those bytes completed.
    pub fn advance_write(&mut self, n: usize) -> u64 {
        self.cursor += n;
        debug_assert!(self.cursor <= self.outbox.len());
        let mut completed = 0;
        while self
            .response_ends
            .front()
            .is_some_and(|&end| end <= self.cursor)
        {
            self.response_ends.pop_front();
            completed += 1;
        }
        if self.cursor == self.outbox.len() {
            self.outbox.clear();
            self.cursor = 0;
        }
        completed
    }

    /// No further requests will be accepted on this connection.
    pub fn is_closing(&self) -> bool {
        self.closing || self.sealed
    }

    /// Everything queued has been written and the connection is
    /// closing: the transport should be shut now.
    pub fn should_close_now(&self) -> bool {
        self.closing && !self.wants_write() && !self.in_flight
    }

    /// Nothing is buffered, parsed, in flight, or pending — a pure
    /// idle keep-alive connection (free to close at shutdown).
    pub fn is_idle(&self) -> bool {
        !self.in_flight
            && self.inbox.is_empty()
            && !self.wants_write()
            && self.parser.buffered() == 0
            && self.pending_error.is_none()
    }

    /// Bytes of a partially-received request sitting in the parser.
    pub fn buffered_partial(&self) -> usize {
        self.parser.buffered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn() -> Connection {
        Connection::new(Limits::default())
    }

    #[test]
    fn feed_take_respond_write_round_trip() {
        let mut c = conn();
        let out = c.feed(b"GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(out.accepted, 1);
        assert!(out.error.is_none());
        let inbound = c.take_request().expect("request ready");
        assert_eq!(inbound.request.path, "/healthz");
        assert!(c.in_flight());
        assert!(c.take_request().is_none(), "one at a time");
        c.push_response(200, "{}", false);
        assert!(!c.in_flight());
        assert!(c.wants_write());
        let n = c.pending_output().len();
        assert_eq!(c.advance_write(n), 1);
        assert!(!c.wants_write());
        assert!(c.is_idle());
        assert!(!c.should_close_now());
    }

    #[test]
    fn pipelined_requests_stay_ordered_behind_in_flight() {
        let mut c = conn();
        let out = c.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        assert_eq!(out.accepted, 2);
        let first = c.take_request().unwrap();
        assert_eq!(first.request.path, "/a");
        // Second request waits for the first response.
        assert!(!c.has_ready_request());
        c.push_response(200, "a", false);
        let second = c.take_request().unwrap();
        assert_eq!(second.request.path, "/b");
    }

    #[test]
    fn partial_writes_complete_responses_only_at_their_boundary() {
        let mut c = conn();
        c.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        c.take_request().unwrap();
        c.push_response(200, "first", false);
        c.take_request().unwrap();
        c.push_response(200, "second", false);
        let total = c.pending_output().len();
        // Drip the bytes out one at a time; exactly two completions.
        let mut completed = 0;
        for _ in 0..total {
            completed += c.advance_write(1);
        }
        assert_eq!(completed, 2);
        assert!(c.is_idle());
    }

    #[test]
    fn connection_close_request_closes_after_flush() {
        let mut c = conn();
        c.feed(b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n");
        c.take_request().unwrap();
        c.push_response(200, "{}", false);
        assert!(c.is_closing());
        assert!(!c.should_close_now(), "response still queued");
        let rendered = String::from_utf8(c.pending_output().to_vec()).unwrap();
        assert!(rendered.contains("Connection: close"));
        let n = c.pending_output().len();
        c.advance_write(n);
        assert!(c.should_close_now());
    }

    /// A request pipelined behind `Connection: close` is never parsed,
    /// so exactly one response goes out, and it closes.
    #[test]
    fn nothing_is_answered_after_a_close_request() {
        let mut c = conn();
        let out =
            c.feed(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\nGET /info HTTP/1.1\r\n\r\n");
        assert_eq!(
            out.accepted, 1,
            "the request after the close is not accepted"
        );
        assert!(c.is_closing());
        assert_eq!(c.take_request().unwrap().request.path, "/healthz");
        c.push_response(200, "{}", false);
        assert!(c.take_request().is_none());
        assert!(!c.has_ready_request());
        assert_eq!(c.feed(b"GET /late HTTP/1.1\r\n\r\n").accepted, 0);
        let n = c.pending_output().len();
        assert_eq!(c.advance_write(n), 1);
        assert!(c.should_close_now());
    }

    /// A forced close (the drain) answers the requests already parsed,
    /// parses nothing more, and puts the close on the last response —
    /// never on one that another response follows.
    #[test]
    fn forced_close_answers_parsed_requests_then_closes_on_the_last() {
        let mut c = conn();
        c.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        c.take_request().unwrap();
        c.push_response(200, "a", true);
        assert!(c.is_closing());
        assert_eq!(c.feed(b"GET /c HTTP/1.1\r\n\r\n").accepted, 0);
        let first = String::from_utf8(c.pending_output().to_vec()).unwrap();
        assert!(!first.contains("Connection: close"));
        assert_eq!(c.take_request().unwrap().request.path, "/b");
        c.push_response(200, "b", true);
        assert!(c.take_request().is_none());
        let both = String::from_utf8(c.pending_output().to_vec()).unwrap();
        assert!(both.ends_with("Connection: close\r\n\r\nb"), "{both}");
        assert!(!c.should_close_now(), "the close waits for the outbox");
        let n = c.pending_output().len();
        assert_eq!(c.advance_write(n), 2);
        assert!(c.should_close_now());
    }

    #[test]
    fn parse_error_waits_its_turn_and_is_released_once() {
        let mut c = conn();
        let out = c.feed(b"GET /ok HTTP/1.1\r\n\r\nBAD lower HTTP/1.1\r\n\r\n");
        assert_eq!(out.accepted, 1);
        assert!(out.error.is_some());
        // The good request goes first; the error waits.
        assert!(c.take_due_error().is_none());
        c.take_request().unwrap();
        assert!(c.take_due_error().is_none(), "in flight blocks the error");
        c.push_response(200, "{}", false);
        let err = c.take_due_error().expect("error is due now");
        assert_eq!(err.status(), 400);
        assert!(c.take_due_error().is_none(), "released exactly once");
        c.push_error_response(err.status(), "{\"error\":\"bad\"}");
        assert!(c.is_closing());
        // Error responses are not ledger-counted.
        let n = c.pending_output().len();
        let completed_before_error = {
            let mut fresh = conn();
            fresh.feed(b"GET /ok HTTP/1.1\r\n\r\n");
            fresh.take_request().unwrap();
            fresh.push_response(200, "{}", false);
            let m = fresh.pending_output().len();
            fresh.advance_write(m)
        };
        assert_eq!(completed_before_error, 1);
        assert_eq!(c.advance_write(n), 1, "only the good response counts");
        assert!(c.should_close_now());
    }

    #[test]
    fn bytes_after_poison_are_discarded() {
        let mut c = conn();
        c.feed(b"BAD lower HTTP/1.1\r\n\r\n");
        let out = c.feed(b"GET /late HTTP/1.1\r\n\r\n");
        assert_eq!(out.accepted, 0);
        assert!(!c.has_ready_request());
    }

    #[test]
    fn split_request_feeds_park_until_complete() {
        let mut c = conn();
        let raw = b"POST /feedback HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        for chunk in raw.chunks(3) {
            c.feed(chunk);
        }
        let inbound = c.take_request().expect("assembled across feeds");
        assert_eq!(inbound.request.body, b"abcd");
        assert_eq!(c.buffered_partial(), 0);
    }
}
