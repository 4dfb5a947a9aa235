//! Cross-crate integration: the PoisonRec attack against a **served**
//! recommender. Every byte crosses a real 127.0.0.1 socket — this is
//! the over-the-wire twin of `end_to_end_attack.rs`.
//!
//! Covers the serve-path acceptance criteria: bit-identical rewards vs
//! the in-process run, graceful shutdown that completes every accepted
//! request under concurrent load, and fault-injected handler panics
//! that surface as 500 without taking the server down.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use datasets::PaperDataset;
use poisonrec::{ActionSpaceKind, PoisonRecConfig, PoisonRecTrainer, PolicyConfig, PpoConfig};
use recsys::data::LogView;
use recsys::rankers::RankerKind;
use recsys::remote::{HttpClient, RemoteSystem};
use recsys::system::{BlackBoxSystem, ObservableSystem, SystemConfig};
use runtime::FaultPlan;
use serve::{RecApp, Server, ServerConfig};

fn small_system(seed: u64) -> BlackBoxSystem {
    let data = PaperDataset::Steam.generate_scaled(0.04, seed);
    let boxed = RankerKind::ItemPop.build(&LogView::clean(&data), 32);
    BlackBoxSystem::build(
        data,
        boxed,
        SystemConfig {
            eval_users: 64,
            seed,
            ..SystemConfig::default()
        },
    )
}

fn quick_cfg(seed: u64) -> PoisonRecConfig {
    PoisonRecConfig {
        policy: PolicyConfig {
            dim: 16,
            num_attackers: 8,
            trajectory_len: 12,
            init_scale: 0.1,
        },
        ppo: PpoConfig {
            samples_per_step: 6,
            batch: 6,
            ..PpoConfig::default()
        },
        action_space: ActionSpaceKind::BcbtPopular,
        seed,
        threads: 2,
    }
}

fn start_server(cfg: ServerConfig) -> (Server, String) {
    let server = Server::start(RecApp::new(small_system(7), None), cfg).expect("bind 127.0.0.1:0");
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// The tentpole criterion: an identical-seed attack cell trained
/// through `RemoteSystem` over a real socket produces a bit-identical
/// reward history to the in-process run. The serving state (snapshot
/// cell, admission queue) must be invisible to the attacker.
#[test]
fn remote_attack_is_bit_identical_to_in_process() {
    const STEPS: usize = 2;

    // In-process reference.
    let reference = small_system(7);
    let mut local = PoisonRecTrainer::new(quick_cfg(21), &reference);
    local.train(&reference, STEPS);
    let local_history: Vec<(f32, f32)> = local
        .history()
        .iter()
        .map(|s| (s.mean_reward, s.max_reward))
        .collect();

    // Identical system, served; attack over the wire.
    let (server, addr) = start_server(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let remote = RemoteSystem::connect(addr).expect("connect to served system");
    assert_eq!(remote.ranker_name(), reference.ranker_name());
    let mut over_wire = PoisonRecTrainer::new(quick_cfg(21), &remote);
    over_wire.train(&remote, STEPS);
    let remote_history: Vec<(f32, f32)> = over_wire
        .history()
        .iter()
        .map(|s| (s.mean_reward, s.max_reward))
        .collect();

    assert_eq!(
        local_history, remote_history,
        "over-the-wire attack diverged from the in-process run"
    );
    assert_eq!(
        remote.observations_spent(),
        reference.observations_spent(),
        "remote attack consumed a different observation budget"
    );

    let stats = server.shutdown();
    assert_eq!(stats.dropped(), 0, "shutdown dropped requests");
}

/// Graceful shutdown under concurrent read load: every request the
/// server accepted is completed, none dropped, and clients only ever
/// see whole, well-framed responses (HttpClient validates framing).
#[test]
fn graceful_shutdown_completes_inflight_requests_under_load() {
    let (server, addr) = start_server(ServerConfig {
        threads: 4,
        ..ServerConfig::default()
    });

    let completed = AtomicU64::new(0);
    let stats = std::thread::scope(|scope| {
        for t in 0..3usize {
            let addr = addr.clone();
            let completed = &completed;
            scope.spawn(move || {
                let mut client = HttpClient::new(addr);
                for i in 0..200usize {
                    let user = ((t * 31 + i) % 50) as u32;
                    match client.request("GET", &format!("/recommend/{user}?k=5"), None) {
                        // Any fully-framed response counts; once shutdown
                        // lands, connection errors are expected — stop.
                        Ok((status, _)) => {
                            assert!(status == 200 || status == 404, "unexpected status {status}");
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => break,
                    }
                }
            });
        }
        // Let the load ramp, then shut down mid-flight.
        std::thread::sleep(std::time::Duration::from_millis(50));
        server.shutdown()
    });

    assert_eq!(stats.dropped(), 0, "accepted requests were dropped");
    assert!(
        completed.load(Ordering::Relaxed) > 0,
        "load never reached the server"
    );
    // The server's ledger can only exceed the clients' count by
    // responses written to sockets the clients had already abandoned.
    assert!(stats.completed >= completed.load(Ordering::Relaxed));
}

/// The live-metrics plane over the wire plus access-log drop
/// accounting: `/metrics` answers both JSON and Prometheus exposition
/// (with window narrowing), and after a graceful shutdown the access
/// log ends in an `access-summary` line whose ledger balances — every
/// request the server completed is either a line in the file or
/// explicitly counted as dropped.
#[test]
fn metrics_scrapes_and_access_log_accounting_balance() {
    use telemetry::json::{self, Json};

    let log_path = std::env::temp_dir().join(format!(
        "serve-access-accounting-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&log_path);
    let (server, addr) = start_server(ServerConfig {
        threads: 2,
        access_log: Some(log_path.clone()),
        ..ServerConfig::default()
    });

    let mut client = HttpClient::new(addr.clone());
    for i in 0..20u32 {
        let (status, _) = client
            .request("GET", &format!("/recommend/{}?k=5", i % 7), None)
            .expect("recommend");
        assert_eq!(status, 200);
    }
    // One parse-error request: logged with method "?" but outside the
    // completed-request ledger the summary balances.
    let (status, _) = client.request("BOGUS", "/healthz", None).expect("bad verb");
    assert_eq!(status, 405);

    // Prom scrape: typed exposition carrying the labeled request family.
    let (status, prom) = client
        .request_text("GET", "/metrics?format=prom&window=10", None)
        .expect("prom scrape");
    assert_eq!(status, 200);
    assert!(prom.contains("# TYPE serve_requests_total counter"));
    assert!(prom.contains("route=\"recommend\""));
    assert!(prom.contains("serve_request_secs_window_count{window=\"10\"}"));

    // JSON scrape: cumulative layer plus the streaming plane.
    let (status, doc) = client
        .request("GET", "/metrics", None)
        .expect("json scrape");
    assert_eq!(status, 200);
    assert!(doc
        .get("stream")
        .and_then(|s| s.get("histograms"))
        .is_some());

    let stats = server.shutdown();
    assert_eq!(stats.dropped(), 0);

    // Replay the file: summary must be the last line and must balance.
    let text = std::fs::read_to_string(&log_path).expect("access log written");
    let lines: Vec<&str> = text.lines().collect();
    let summary = json::parse(lines.last().expect("non-empty log")).expect("summary parses");
    assert_eq!(
        summary.get("type").and_then(Json::as_str),
        Some("access-summary"),
        "last line must be the accounting summary"
    );
    let counted = lines
        .iter()
        .filter_map(|l| json::parse(l).ok())
        .filter(|v| {
            v.get("type").and_then(Json::as_str) == Some("access")
                && v.get("method").and_then(Json::as_str) != Some("?")
        })
        .count() as u64;
    let events = summary.get("events").and_then(Json::as_u64).unwrap();
    let dropped = summary.get("dropped").and_then(Json::as_u64).unwrap();
    let completed = summary.get("completed").and_then(Json::as_u64).unwrap();
    assert_eq!(events, counted, "summary events == ledger lines in file");
    assert_eq!(
        events + dropped,
        completed,
        "every completed request is in the file or counted as dropped"
    );
    assert_eq!(
        completed, stats.completed,
        "summary matches the server ledger"
    );
    let _ = std::fs::remove_file(&log_path);
}

/// A handler panic injected via `runtime::FaultPlan` is contained: the
/// faulted request gets a 500, the connection stays sane, and the
/// server keeps serving 200s afterwards.
#[test]
fn fault_injected_panic_returns_500_and_server_keeps_serving() {
    let (server, addr) = start_server(ServerConfig {
        threads: 1,
        fault_plan: Some(Arc::new(FaultPlan::new().panic_on_job(2))),
        ..ServerConfig::default()
    });

    let mut client = HttpClient::new(addr);
    let mut statuses = Vec::new();
    for _ in 0..5 {
        let (status, body) = client.request("GET", "/healthz", None).expect("request");
        if status == 500 {
            assert_eq!(
                body.get("error").and_then(telemetry::json::Json::as_str),
                Some("internal error")
            );
        }
        statuses.push(status);
    }
    // Work-unit ordinals count from 0, so the plan fires on request #3.
    assert_eq!(statuses, vec![200, 200, 500, 200, 200]);

    let stats = server.shutdown();
    assert_eq!(stats.dropped(), 0);
    assert_eq!(stats.accepted, 5);
}
