//! E-serve — the over-the-wire attack path and serving performance.
//!
//! Phases against one in-process [`serve::Server`] bound to an
//! OS-assigned port on 127.0.0.1 (all traffic crosses a real socket):
//!
//! 1. **Attack replay** — one fig-4 cell (Steam × first ranker ×
//!    BCBT-Popular) trained twice with identical seeds: once against
//!    the in-process [`BlackBoxSystem`], once through
//!    [`recsys::RemoteSystem`] against the served copy. The two reward
//!    histories must be **bit-identical** — the serving layer must not
//!    perturb the observation seed stream.
//! 2. **Load grid** — connections sweep of `GET /recommend` (one
//!    persistent keep-alive connection per client thread), recording
//!    p50/p95/p99 seconds-per-request plus requests-per-connection.
//!    Dial counts are asserted well below request counts: a grid that
//!    silently reconnects per request understates keep-alive
//!    throughput.
//! 3. **Idle keep-alive fleet** — `SERVE_IDLE_CONNS` connections held
//!    open and idle (after `raise_nofile`) while a live client probes
//!    `/healthz`; the event loop serves them all on a fixed thread
//!    set, which the process thread count asserts.
//! 4. **Retrain under load** — read p99 idle vs during a
//!    feedback→retrain churn loop; snapshot publication is one atomic
//!    swap and wait-free for readers, so serving must not stall.
//! 5. **Live-metrics plane overhead** — read load with the streaming
//!    plane disabled (`telemetry::stream::set_enabled`) versus enabled,
//!    alternated over ten rounds of 100 reads per arm (a fixed 1,000
//!    reads per arm, whatever `SERVE_REQUESTS` says); plane-on p50 and
//!    p99 must stay within `SERVE_PLANE_GATE`× of plane-off (default
//!    3.0 — the per-request cost is a labeled counter bump plus two
//!    windowed records, so the real ratio is ~1.0 and the gate only
//!    catches regressions that put locks or allocation back on the hot
//!    path).
//!
//! Environment knobs (`ExpArgs` covers the attack cell; the grid is
//! env-tuned so `scripts/ci.sh` can shrink it):
//! `SERVE_CONNS_GRID` (default `1,4,16`), `SERVE_REQUESTS` per cell
//! (default `200`), `SERVE_IDLE_CONNS` (default `10000`, `0`
//! disables), `SERVE_ACCESS_LOG` (default `<out>/serve_access.jsonl`).
//!
//! Serving speed claims are measured by the repository benchmark
//! (`perfbench --workload serve-mixed`, `scripts/perf_pairs.sh`); the
//! numbers printed here back the serving docs (DESIGN.md §5e–§5f).

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bench::ExpArgs;
use datasets::PaperDataset;
use poisonrec::{ActionSpaceKind, PoisonRecTrainer};
use recsys::remote::{HttpClient, RemoteSystem};
use serve::{RecApp, Server, ServerConfig};
use telemetry::json::Json;

/// Phase 5 alternates plane-off and plane-on reads over this many
/// rounds of [`PLANE_READS_PER_ROUND`] reads per arm, so each arm pools
/// 1,000 reads and its p99 has ten reads beyond it.
const PLANE_ROUNDS: usize = 10;
const PLANE_READS_PER_ROUND: usize = 100;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_grid(name: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(name) {
        Ok(raw) => raw
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("{name} entry {s:?} is not a number"))
            })
            .collect(),
        Err(_) => default.to_vec(),
    }
}

/// Sorted-latency percentile (nearest-rank).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let idx = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// The processes' current thread count (Linux); `None` elsewhere.
fn process_threads() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
}

struct LoadStats {
    sorted: Vec<f64>,
    /// TCP dials across all clients — healthy keep-alive keeps this at
    /// one per connection.
    dials: u64,
    completed: u64,
}

/// Hammers `GET /recommend?k=10` from `conns` persistent keep-alive
/// connections (one client thread each), `requests` total; returns
/// sorted per-request latencies plus connection accounting. Panics on
/// any non-200 — the load test's correctness half.
fn run_load(addr: &str, conns: usize, requests: usize, num_users: u32) -> LoadStats {
    let non_200 = AtomicU64::new(0);
    let dials = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let mut sorted: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|t| {
                let non_200 = &non_200;
                let dials = &dials;
                let completed = &completed;
                scope.spawn(move || {
                    let mut client = HttpClient::new(addr.to_string());
                    // The dial happens lazily on the first request;
                    // warm the connection untimed so the latency
                    // distribution measures keep-alive reads, not
                    // connect handshakes.
                    let (status, _) = client
                        .request("GET", "/healthz", None)
                        .expect("warmup request failed");
                    assert_eq!(status, 200, "warmup request rejected");
                    let per_thread = requests / conns + usize::from(requests % conns > t);
                    let mut out = Vec::with_capacity(per_thread);
                    for i in 0..per_thread {
                        let user = ((t * 7919 + i) as u32) % num_users;
                        let start = Instant::now();
                        let (status, _) = client
                            .request("GET", &format!("/recommend/{user}?k=10"), None)
                            .expect("load request failed");
                        out.push(start.elapsed().as_secs_f64());
                        if status != 200 {
                            non_200.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    dials.fetch_add(client.dials(), Ordering::Relaxed);
                    completed.fetch_add(client.completed_requests(), Ordering::Relaxed);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    assert_eq!(
        non_200.load(Ordering::Relaxed),
        0,
        "load test saw non-200 responses"
    );
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    LoadStats {
        sorted,
        dials: dials.load(Ordering::Relaxed),
        completed: completed.load(Ordering::Relaxed),
    }
}

fn start_server(
    args: &ExpArgs,
    dataset: PaperDataset,
    ranker: recsys::rankers::RankerKind,
    max_conns: usize,
    access_log: std::path::PathBuf,
) -> Server {
    let system = args.build_system(dataset, ranker);
    let cfg = ServerConfig::builder()
        .threads(4)
        .max_conns(max_conns)
        .access_log(access_log)
        .build()
        .expect("valid server config");
    Server::start(RecApp::new(system, None), cfg).expect("bind 127.0.0.1:0")
}

fn main() {
    let args = ExpArgs::parse();
    let ranker = args.ranker_list()[0];
    let dataset = PaperDataset::Steam;
    let design = ActionSpaceKind::BcbtPopular;

    let conns_grid = env_grid("SERVE_CONNS_GRID", &[1, 4, 16]);
    let requests = env_usize("SERVE_REQUESTS", 200);
    let idle_conns_target = env_usize("SERVE_IDLE_CONNS", 10_000);
    let access_log = std::env::var("SERVE_ACCESS_LOG")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| args.out_dir.join("serve_access.jsonl"));
    let max_conns_needed = conns_grid.iter().copied().max().unwrap_or(1) + idle_conns_target + 64;

    // ---- Phase 1: in-process reference run ------------------------------
    println!(
        "phase 1: attack replay — {} × {} × {}, {} step(s) × {} episode(s)",
        dataset.name(),
        ranker.name(),
        design.name(),
        args.steps,
        args.episodes
    );
    let reference = args.build_system(dataset, ranker);
    let num_users = reference.base().num_users();
    let local_trainer = args.train_poisonrec(&reference, design, 11);
    let local_history: Vec<(f32, f32)> = local_trainer
        .history()
        .iter()
        .map(|s| (s.mean_reward, s.max_reward))
        .collect();

    let server = start_server(&args, dataset, ranker, max_conns_needed, access_log);
    let addr = server.local_addr().to_string();
    println!("serving on {addr} — {} driver", server.driver().name());

    // ---- Attack replay over the wire ------------------------------------
    let remote = RemoteSystem::connect(addr.clone()).expect("connect to served system");
    let cfg = args.poisonrec_config(design, 11);
    let mut remote_trainer = PoisonRecTrainer::new(cfg, &remote);
    remote_trainer.train(&remote, args.steps);
    drop(remote);
    let remote_history: Vec<(f32, f32)> = remote_trainer
        .history()
        .iter()
        .map(|s| (s.mean_reward, s.max_reward))
        .collect();
    assert_eq!(
        local_history, remote_history,
        "over-the-wire attack diverged from the in-process run"
    );
    println!(
        "phase 1 OK: {} step(s) bit-identical over the socket (final mean RecNum {:.1})",
        local_history.len(),
        local_history.last().map(|&(m, _)| m).unwrap_or(0.0)
    );

    // ---- Phase 2: load grid (persistent connections per cell) -----------
    println!("phase 2: load grid — conns {conns_grid:?} × {requests} request(s)");
    for &conns in &conns_grid {
        let stats = run_load(&addr, conns, requests, num_users);
        // The keep-alive contract this grid exists to measure:
        // reconnect-per-request would put dials ≈ requests.
        assert!(
            stats.dials < stats.completed.max(2),
            "load grid reconnected per request ({} dials / {} requests)",
            stats.dials,
            stats.completed
        );
        println!(
            "  c={conns:>3}: p50 {:.6}s  p95 {:.6}s  p99 {:.6}s  ({:.0} req/conn)",
            percentile(&stats.sorted, 0.50),
            percentile(&stats.sorted, 0.95),
            percentile(&stats.sorted, 0.99),
            stats.completed as f64 / stats.dials.max(1) as f64
        );
    }

    if idle_conns_target > 0 {
        // Client + server fds live in this one process.
        let budget = serve::raise_nofile((2 * idle_conns_target + 4096) as u64).unwrap_or(1024);
        let idle_target = idle_conns_target.min((budget.saturating_sub(2048) / 2) as usize);
        println!(
            "phase 3: holding {idle_target} idle keep-alive connection(s) (fd budget {budget})"
        );
        let mut fleet = Vec::with_capacity(idle_target);
        for _ in 0..idle_target {
            fleet.push(TcpStream::connect(&addr).expect("idle connect"));
        }
        // Let the poller absorb the accept burst before probing.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let probe = run_load(&addr, 2, requests.max(50), num_users);
        let threads_now = process_threads().unwrap_or(0);
        if threads_now > 0 {
            assert!(
                (threads_now as usize) < idle_target.max(64),
                "thread count {threads_now} scales with connections"
            );
        }
        println!(
            "  live /recommend under {} idle conns: p50 {:.6}s p99 {:.6}s ({} process thread(s))",
            fleet.len(),
            percentile(&probe.sorted, 0.50),
            percentile(&probe.sorted, 0.99),
            threads_now
        );
        drop(fleet);
        // Dropping the fleet floods the loop with FINs; wait
        // for the teardown storm to clear so phase 4 measures
        // an idle server, not connection teardown.
        let settle = std::time::Instant::now();
        while server.active_connections() > 0
            && settle.elapsed() < std::time::Duration::from_secs(10)
        {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }

    println!("phase 4: read p99 idle vs during retrain churn");
    let probe_conns = 2;
    let idle = run_load(&addr, probe_conns, requests, num_users);
    let idle_p99 = percentile(&idle.sorted, 0.99);

    let stop = std::sync::atomic::AtomicBool::new(false);
    let (under_p99, retrains) = std::thread::scope(|scope| {
        let stop_ref = &stop;
        let addr_ref = addr.as_str();
        let churn = scope.spawn(move || {
            let mut client = HttpClient::new(addr_ref.to_string());
            let feedback = Json::obj().field(
                "trajectories",
                Json::Arr(vec![Json::Arr(vec![
                    Json::from(1u32),
                    Json::from(2u32),
                    Json::from(3u32),
                ])]),
            );
            let mut retrains = 0u64;
            while !stop_ref.load(Ordering::Relaxed) {
                let (status, _) = client
                    .request("POST", "/feedback", Some(&feedback))
                    .expect("churn feedback");
                assert_eq!(status, 200, "churn feedback rejected");
                let (status, _) = client
                    .request("POST", "/retrain", None)
                    .expect("churn retrain");
                assert_eq!(status, 200, "churn retrain rejected");
                retrains += 1;
            }
            retrains
        });
        let under = run_load(&addr, probe_conns, requests, num_users);
        stop.store(true, Ordering::Relaxed);
        let retrains = churn.join().expect("churn thread");
        (percentile(&under.sorted, 0.99), retrains)
    });
    println!("  idle p99 {idle_p99:.6}s — during {retrains} retrain(s) p99 {under_p99:.6}s");

    // ---- Phase 5: live-metrics plane off vs on --------------------------
    println!("phase 5: read latency with the live-metrics plane off vs on");
    let gate: f64 = std::env::var("SERVE_PLANE_GATE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0);
    // A fixed sample independent of SERVE_REQUESTS: the arms alternate
    // over PLANE_ROUNDS rounds so host noise lands on both, and each
    // pools enough reads that its p99 is not one outlier.
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..PLANE_ROUNDS {
        telemetry::stream::set_enabled(false);
        off.extend(run_load(&addr, probe_conns, PLANE_READS_PER_ROUND, num_users).sorted);
        telemetry::stream::set_enabled(true);
        on.extend(run_load(&addr, probe_conns, PLANE_READS_PER_ROUND, num_users).sorted);
    }
    off.sort_by(f64::total_cmp);
    on.sort_by(f64::total_cmp);
    let off_pair = (percentile(&off, 0.50), percentile(&off, 0.99));
    let on_pair = (percentile(&on, 0.50), percentile(&on, 0.99));
    println!(
        "  plane off: p50 {:.6}s p99 {:.6}s — plane on: p50 {:.6}s p99 {:.6}s",
        off_pair.0, off_pair.1, on_pair.0, on_pair.1
    );
    assert!(
        on_pair.0 <= off_pair.0 * gate && on_pair.1 <= off_pair.1 * gate,
        "live-metrics plane costs more than {gate}x on the read path \
         (off p50/p99 {:.6}/{:.6}s, on {:.6}/{:.6}s)",
        off_pair.0,
        off_pair.1,
        on_pair.0,
        on_pair.1
    );

    // ---- Shutdown ledger ------------------------------------------------
    let final_generation = server.generation();
    let stats = server.shutdown();
    println!(
        "shutdown: accepted {} / completed {} / dropped {} (generation {final_generation})",
        stats.accepted,
        stats.completed,
        stats.dropped()
    );
    assert_eq!(stats.dropped(), 0, "graceful shutdown dropped requests");
}
