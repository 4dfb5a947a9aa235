//! The headline scale criterion for the serve loop: 10k idle
//! keep-alive connections held open against one server, served by a
//! **fixed-size** thread set — no thread per connection — while
//! `/healthz` stays live with sane latency, and a graceful shutdown
//! still retires every connection with a clean ledger.
//!
//! The server runs as a child process (the real `serve` binary, which
//! also exercises the `--max-conns` flag): client and
//! server each get their own fd budget, so 10k sockets per side fit
//! under a 20k `RLIMIT_NOFILE` that an unprivileged container cannot
//! raise. The child's thread count is read from `/proc/<pid>/status`
//! — the number that proves connections do not cost threads.
//!
//! On Linux the child must report the epoll poller: the sweep fallback
//! re-tries every registration each tick, so a silent fallback would
//! turn this fleet into a busy loop.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use recsys::remote::HttpClient;
use telemetry::json::{self, Json};

/// A process's thread count per the kernel (Linux only).
fn process_threads(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
}

#[test]
fn ten_thousand_idle_connections_on_a_fixed_thread_set() {
    let requested = 10_000usize;
    // The client fleet lives in this process; leave headroom for the
    // harness's own fds.
    let budget = serve::raise_nofile((requested + 4096) as u64).unwrap_or(1024);
    let target = requested.min(budget.saturating_sub(2048) as usize);

    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args([
            "--scale",
            "0.02",
            "--eval-users",
            "16",
            "--seed",
            "9",
            "--threads",
            "2",
            "--max-conns",
            "12000",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn serve binary");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));

    let mut line = String::new();
    stdout.read_line(&mut line).expect("serving line");
    let serving = json::parse(line.trim()).expect("serving JSON");
    assert_eq!(serving.get("type").and_then(Json::as_str), Some("serving"));
    let addr = serving
        .get("addr")
        .and_then(Json::as_str)
        .expect("addr in serving line")
        .to_string();
    #[cfg(target_os = "linux")]
    assert_eq!(
        serving.get("poller").and_then(Json::as_str),
        Some("epoll"),
        "serving line: {}",
        serving.render()
    );

    let ramp = Instant::now();
    let mut fleet = Vec::with_capacity(target);
    for i in 0..target {
        // On small machines the client can outrun the accept loop and
        // overflow the 128-entry listen backlog (SYN drops turn into
        // 1s retransmit stalls) — yield so the loop thread keeps up.
        if i % 64 == 0 {
            std::thread::yield_now();
        }
        let stream = TcpStream::connect(&addr)
            .unwrap_or_else(|err| panic!("idle connect #{i} failed: {err}"));
        fleet.push(stream);
    }
    println!("ramped {} connections in {:?}", fleet.len(), ramp.elapsed());
    // Give the poller a beat to drain the accept backlog.
    std::thread::sleep(Duration::from_millis(100));

    let threads_now = process_threads(child.id()).expect("/proc on linux");
    assert!(
        threads_now < 32,
        "{threads_now} server threads while holding {} connections — \
         the server is spending threads per connection",
        fleet.len()
    );

    // The server stays live under the idle fleet: probe /healthz on a
    // fresh keep-alive connection and check the tail latency.
    let mut client = HttpClient::new(addr);
    let mut latencies = Vec::with_capacity(100);
    for _ in 0..100 {
        let start = Instant::now();
        let (status, body) = client.request("GET", "/healthz", None).expect("healthz");
        latencies.push(start.elapsed());
        assert_eq!(status, 200);
        assert!(
            body.get("generation").and_then(Json::as_u64).is_some(),
            "malformed /healthz body: {}",
            body.render()
        );
    }
    latencies.sort();
    let p99 = latencies[98];
    assert!(
        p99 < Duration::from_millis(250),
        "/healthz p99 {p99:?} under {} idle connections — the loop is stalling",
        fleet.len()
    );

    // Graceful shutdown retires the whole fleet with a clean ledger.
    drop(client);
    drop(fleet);
    child
        .stdin
        .take()
        .expect("child stdin")
        .write_all(b"quit\n")
        .expect("send quit");
    let mut shutdown_line = None;
    let mut line = String::new();
    while {
        line.clear();
        stdout.read_line(&mut line).expect("child stdout") > 0
    } {
        if let Ok(value) = json::parse(line.trim()) {
            if value.get("type").and_then(Json::as_str) == Some("shutdown") {
                shutdown_line = Some(value);
                break;
            }
        }
    }
    let shutdown = shutdown_line.expect("shutdown ledger line");
    assert_eq!(
        shutdown.get("dropped").and_then(Json::as_u64),
        Some(0),
        "idle fleet shutdown dropped requests: {}",
        shutdown.render()
    );
    let status = child.wait().expect("child exit");
    assert!(status.success(), "serve binary exited nonzero: {status}");
}
