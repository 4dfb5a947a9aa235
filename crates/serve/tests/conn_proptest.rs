//! Property tests over the sans-io [`serve::Connection`] machine —
//! the single implementation of pipelining, response ordering, and
//! close semantics that the serve loop drives.
//!
//! The properties model a hostile transport: reads arrive in
//! arbitrary-sized fragments, writes are accepted in arbitrary-sized
//! quanta, and the driver interleaves servicing and flushing in
//! arbitrary order (the sans-io analogue of wakeup timing). Under
//! every interleaving: no panic, no livelock, every accepted request
//! answered exactly once, responses in request order.

use proptest::prelude::*;
use serve::{Connection, Limits};

/// Renders request `i` with a sentinel path unique even as a
/// substring (zero-padded), optionally asking to close.
fn render_request(i: usize, close: bool) -> String {
    format!(
        "GET /req-{i:04} HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n{}\r\n",
        if close { "Connection: close\r\n" } else { "" }
    )
}

/// Drives the machine to quiescence under the given fragmentation /
/// write-quota / interleaving schedule. Returns (accepted, responded,
/// completed, transport bytes). Panics (via the iteration cap) if the
/// machine livelocks.
fn drive(
    stream: &[u8],
    chunks: &[usize],
    writes: &[usize],
    write_first: &[bool],
) -> (usize, usize, u64, Vec<u8>) {
    let mut conn = Connection::new(Limits::default());
    let mut fed = 0;
    let mut accepted = 0;
    let mut responded = 0;
    let mut completed = 0u64;
    let mut output = Vec::new();

    for iteration in 0.. {
        assert!(iteration < 200_000, "connection machine livelocked");
        // One "readiness event": feed a fragment if the peer has more.
        if fed < stream.len() {
            let take = chunks[iteration % chunks.len()].min(stream.len() - fed);
            let outcome = conn.feed(&stream[fed..fed + take]);
            fed += take;
            accepted += outcome.accepted;
        }

        let service = |conn: &mut Connection, responded: &mut usize| {
            if let Some(err) = conn.take_due_error() {
                conn.push_error_response(err.status(), "{\"error\":\"bad\"}");
            }
            while conn.has_ready_request() {
                let inbound = conn.take_request().expect("ready");
                let body = format!("{{\"echo\":\"{}\"}}", inbound.request.path);
                conn.push_response(200, &body, false);
                *responded += 1;
            }
        };
        let flush = |conn: &mut Connection, completed: &mut u64, output: &mut Vec<u8>| {
            if conn.wants_write() {
                let quota = writes[iteration % writes.len()].min(conn.pending_output().len());
                output.extend_from_slice(&conn.pending_output()[..quota]);
                *completed += conn.advance_write(quota);
            }
        };

        // Wakeup-order interleaving: sometimes the write readiness
        // fires before the dispatch completes, sometimes after.
        if write_first[iteration % write_first.len()] {
            flush(&mut conn, &mut completed, &mut output);
            service(&mut conn, &mut responded);
        } else {
            service(&mut conn, &mut responded);
            flush(&mut conn, &mut completed, &mut output);
        }

        let input_done = fed >= stream.len() || conn.is_closing();
        if input_done && !conn.wants_write() && !conn.has_ready_request() && !conn.in_flight() {
            // Let a due error surface before declaring quiescence.
            if conn.take_due_error().is_none() {
                break;
            }
            conn.push_error_response(400, "{\"error\":\"bad\"}");
        }
    }
    (accepted, responded, completed, output)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Well-formed pipelined traffic: every request the machine
    /// accepts is answered exactly once, in order, regardless of how
    /// the transport fragments reads and writes or how the driver
    /// interleaves dispatch with flushing.
    #[test]
    fn interleavings_never_lose_or_reorder_pipelined_requests(
        n_reqs in 1usize..10,
        close_at_raw in 0usize..11,
        chunks in prop::collection::vec(1usize..64, 1..40),
        writes in prop::collection::vec(1usize..48, 1..40),
        write_first_raw in prop::collection::vec(0u8..2, 1..16),
    ) {
        // 10 encodes "no close" (n_reqs tops out at 9).
        let close_at = (close_at_raw < 10).then_some(close_at_raw);
        let write_first: Vec<bool> = write_first_raw.iter().map(|&b| b == 1).collect();
        let mut stream = Vec::new();
        for i in 0..n_reqs {
            stream.extend_from_slice(render_request(i, close_at == Some(i)).as_bytes());
        }

        let (accepted, responded, completed, output) =
            drive(&stream, &chunks, &writes, &write_first);

        // No request outlives the run unanswered, none answered twice.
        prop_assert_eq!(responded, accepted);
        prop_assert_eq!(completed as usize, responded);
        // At least the requests up to (and including) any close made it
        // through; a close can only shed *later* pipelined requests.
        let must_answer = close_at.filter(|&c| c < n_reqs).map_or(n_reqs, |c| c + 1);
        prop_assert!(accepted >= must_answer,
            "lost a request before the close point: {} < {}", accepted, must_answer);

        // Responses appear in request order on the wire.
        let text = String::from_utf8(output).expect("responses are ascii");
        let mut last = None;
        for i in 0..n_reqs {
            if let Some(pos) = text.find(&format!("/req-{i:04}")) {
                if let Some(prev) = last {
                    prop_assert!(pos > prev, "response {} out of order", i);
                }
                last = Some(pos);
            }
        }
    }

    /// Hostile bytes: arbitrary garbage interleaved with real traffic
    /// never panics or livelocks, poisons at most once, and every
    /// response still flushed is well-formed HTTP.
    #[test]
    fn garbage_never_panics_or_hangs(
        prefix_reqs in 0usize..3,
        garbage_raw in prop::collection::vec(0u16..256, 0..512),
        chunks in prop::collection::vec(1usize..32, 1..20),
        writes in prop::collection::vec(1usize..32, 1..20),
    ) {
        let garbage: Vec<u8> = garbage_raw.iter().map(|&b| b as u8).collect();
        let mut stream = Vec::new();
        for i in 0..prefix_reqs {
            stream.extend_from_slice(render_request(i, false).as_bytes());
        }
        stream.extend_from_slice(&garbage);

        let (accepted, responded, completed, output) =
            drive(&stream, &chunks, &writes, &[false]);

        prop_assert_eq!(responded, accepted);
        prop_assert_eq!(completed as usize, responded);
        // Whatever went out is a whole number of HTTP/1.1 responses.
        if !output.is_empty() {
            prop_assert!(output.starts_with(b"HTTP/1.1 "));
        }
    }
}
