//! The live-metrics plane's cost on the read path: the same
//! `GET /recommend` load with the streaming plane off
//! (`telemetry::stream::set_enabled(false)`) and on, alternated over
//! [`ROUNDS`] rounds so host noise lands on both arms. Plane-on p50 and
//! p99 must stay within [`GATE`]× of plane-off. The per-request cost is
//! a labeled counter bump (it builds its label key) plus two windowed
//! records, each a short critical section under its ring's mutex: tens
//! of nanoseconds against a read of tens of microseconds, so the real
//! ratio is about 1.0. The gate catches only a record path that costs a
//! multiple of the read itself, such as one that blocks or scans.
//!
//! Its own test binary: the switch is process-global, and
//! `tests/serve_attack.rs` asserts windowed series that a disabled
//! plane would not record.

use std::time::Instant;

use datasets::PaperDataset;
use recsys::data::LogView;
use recsys::rankers::RankerKind;
use recsys::remote::HttpClient;
use recsys::system::{BlackBoxSystem, SystemConfig};
use serve::{RecApp, Server, ServerConfig};

/// Alternating off/on rounds; each arm pools `ROUNDS × READS_PER_ROUND`
/// = 1,000 reads, so its p99 has ten reads beyond it.
const ROUNDS: usize = 10;
const READS_PER_ROUND: usize = 100;
/// Concurrent keep-alive clients per round.
const CLIENTS: usize = 2;
/// Largest allowed plane-on / plane-off latency ratio at p50 and p99.
const GATE: f64 = 3.0;

/// Sorted-latency percentile (nearest rank).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// `READS_PER_ROUND` timed reads spread over [`CLIENTS`] fresh
/// keep-alive connections; panics on any non-200.
fn read_round(addr: &str, num_users: u32) -> Vec<f64> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = HttpClient::new(addr.to_string());
                    // Dial untimed, so the samples are keep-alive reads.
                    let (status, _) = client.request("GET", "/healthz", None).expect("warmup");
                    assert_eq!(status, 200);
                    (0..READS_PER_ROUND / CLIENTS)
                        .map(|i| {
                            let user = (c * 7919 + i) as u32 % num_users;
                            let start = Instant::now();
                            let (status, _) = client
                                .request("GET", &format!("/recommend/{user}?k=10"), None)
                                .expect("read");
                            assert_eq!(status, 200, "read of user {user} failed");
                            start.elapsed().as_secs_f64()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    })
}

#[test]
fn live_metrics_plane_stays_within_gate_on_the_read_path() {
    let data = PaperDataset::Steam.generate_scaled(0.02, 17);
    let num_users = data.num_users();
    let ranker = RankerKind::ItemPop.build(&LogView::clean(&data), 32);
    let system = BlackBoxSystem::build(
        data,
        ranker,
        SystemConfig {
            eval_users: 8,
            seed: 17,
            ..SystemConfig::default()
        },
    );
    let cfg = ServerConfig::builder()
        .threads(2)
        .build()
        .expect("valid server config");
    let server = Server::start(RecApp::new(system, None), cfg).expect("bind 127.0.0.1:0");
    let addr = server.local_addr().to_string();

    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        telemetry::stream::set_enabled(false);
        off.extend(read_round(&addr, num_users));
        telemetry::stream::set_enabled(true);
        on.extend(read_round(&addr, num_users));
    }
    off.sort_by(f64::total_cmp);
    on.sort_by(f64::total_cmp);
    let (off_p50, off_p99) = (percentile(&off, 0.50), percentile(&off, 0.99));
    let (on_p50, on_p99) = (percentile(&on, 0.50), percentile(&on, 0.99));
    println!(
        "plane off: p50 {off_p50:.6}s p99 {off_p99:.6}s — plane on: p50 {on_p50:.6}s p99 {on_p99:.6}s"
    );
    assert!(
        on_p50 <= off_p50 * GATE && on_p99 <= off_p99 * GATE,
        "live-metrics plane costs more than {GATE}x on the read path \
         (off p50/p99 {off_p50:.6}/{off_p99:.6}s, on {on_p50:.6}/{on_p99:.6}s)"
    );
    assert_eq!(server.shutdown().dropped(), 0, "shutdown dropped requests");
}
