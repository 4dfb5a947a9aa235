//! The serving binary: stand up a recommendation server over one of
//! the paper's twin datasets and serve until stdin closes.
//!
//! ```text
//! serve --dataset Steam --scale 0.05 --ranker ItemPop --port 8080 \
//!       --threads 2 --access-log runs/access.jsonl \
//!       --defense full --defense-fpr 0.05
//! ```
//!
//! Prints one `{"type":"serving", "addr":...}` line to stdout once the
//! socket is bound (with `--port 0`, this is how scripts learn the
//! OS-assigned port), then blocks reading stdin. EOF or a `quit` line
//! triggers a graceful shutdown: accepting stops, every in-flight
//! request completes, and a final `{"type":"shutdown", ...}` ledger
//! line is printed. Exits non-zero iff any accepted request was
//! dropped — the invariant `scripts/ci.sh` pins.

use std::io::BufRead;
use std::process::ExitCode;
use std::sync::Arc;

use recsys::defense::{parse_fpr, DefenseKind, DefenseStack};
use recsys::rankers::RankerKind;
use recsys::system::{BlackBoxSystem, SystemConfig};
use serve::{RecApp, Server, ServerConfig};
use telemetry::json::Json;

struct Args {
    dataset: datasets::PaperDataset,
    scale: f64,
    seed: u64,
    ranker: RankerKind,
    eval_users: usize,
    reserve_attackers: u32,
    port: u16,
    threads: usize,
    max_conns: usize,
    access_log: Option<std::path::PathBuf>,
    defense: Option<String>,
    defense_fpr: f64,
    fault_ordinals: Vec<u64>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            dataset: datasets::PaperDataset::Steam,
            scale: 0.05,
            seed: 42,
            ranker: RankerKind::ItemPop,
            eval_users: 50,
            reserve_attackers: 32,
            port: 0,
            threads: 2,
            max_conns: 10_000,
            access_log: None,
            defense: None,
            defense_fpr: 0.05,
            fault_ordinals: Vec::new(),
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: serve [--dataset NAME] [--scale F] [--seed N] [--ranker NAME]\n\
         \x20            [--eval-users N] [--reserve-attackers N] [--port N] [--threads N]\n\
         \x20            [--max-conns N]\n\
         \x20            [--access-log FILE] [--defense-fpr F]\n\
         \x20            [--defense lof|reputation|adaptive|full]\n\
         \x20            [--fault-ordinals a,b,c]\n\
         serves until stdin reaches EOF (or a `quit` line), then drains and exits"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--dataset" => {
                let raw = value("--dataset");
                args.dataset = datasets::PaperDataset::parse(&raw).unwrap_or_else(|| {
                    eprintln!("unknown dataset {raw:?}");
                    usage()
                });
            }
            "--scale" => args.scale = value("--scale").parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--ranker" => {
                let raw = value("--ranker");
                args.ranker = raw.parse().unwrap_or_else(|err| {
                    eprintln!("{err}");
                    usage()
                });
            }
            "--eval-users" => {
                args.eval_users = value("--eval-users").parse().unwrap_or_else(|_| usage())
            }
            "--reserve-attackers" => {
                args.reserve_attackers = value("--reserve-attackers")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--port" => args.port = value("--port").parse().unwrap_or_else(|_| usage()),
            "--threads" => args.threads = value("--threads").parse().unwrap_or_else(|_| usage()),
            "--max-conns" => {
                args.max_conns = value("--max-conns").parse().unwrap_or_else(|_| usage())
            }
            "--access-log" => args.access_log = Some(value("--access-log").into()),
            "--defense" => args.defense = Some(value("--defense")),
            "--defense-fpr" => {
                args.defense_fpr = parse_fpr(&value("--defense-fpr")).unwrap_or_else(|err| {
                    eprintln!("--defense-fpr: {err}");
                    usage()
                })
            }
            "--fault-ordinals" => {
                args.fault_ordinals = value("--fault-ordinals")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            _ => {
                eprintln!("unknown flag {flag:?}");
                usage();
            }
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();

    let data = args.dataset.generate_scaled(args.scale, args.seed);
    let view = recsys::data::LogView::clean(&data);
    let ranker = args.ranker.build(&view, args.reserve_attackers);
    let defense: Option<DefenseStack> = args.defense.as_deref().map(|name| {
        let Some(kind) = DefenseKind::parse(name) else {
            eprintln!("unknown defense {name:?} (expected lof|reputation|adaptive|full)");
            std::process::exit(2);
        };
        DefenseStack::build(kind, &data, args.defense_fpr).unwrap_or_else(|| {
            eprintln!("--defense none is the default; omit the flag instead");
            std::process::exit(2);
        })
    });
    let system = BlackBoxSystem::build(
        data,
        ranker,
        SystemConfig {
            eval_users: args.eval_users,
            seed: args.seed,
            reserve_attackers: args.reserve_attackers,
            ..SystemConfig::default()
        },
    );

    let fault_plan = (!args.fault_ordinals.is_empty()).then(|| {
        let mut plan = runtime::FaultPlan::new();
        for ordinal in &args.fault_ordinals {
            plan = plan.panic_on_job(*ordinal);
        }
        Arc::new(plan)
    });

    let mut builder = ServerConfig::builder()
        .port(args.port)
        .threads(args.threads)
        .max_conns(args.max_conns);
    if let Some(path) = &args.access_log {
        builder = builder.access_log(path.clone());
    }
    if let Some(plan) = fault_plan {
        builder = builder.fault_plan(plan);
    }
    let cfg = builder.build().unwrap_or_else(|err| {
        eprintln!("bad server config: {err}");
        std::process::exit(2);
    });

    let server = Server::start(RecApp::new(system, defense), cfg).unwrap_or_else(|err| {
        eprintln!("cannot bind 127.0.0.1:{}: {err}", args.port);
        std::process::exit(1);
    });

    println!(
        "{}",
        Json::obj()
            .field("type", "serving")
            .field("addr", server.local_addr().to_string())
            .field("dataset", args.dataset.name())
            .field("ranker", args.ranker.name())
            .field("threads", args.threads)
            .field("max_conns", args.max_conns)
            .field("poller", server.poller())
            .render()
    );

    // Serve until the operator (or the driving script) hangs up.
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(text) if text.trim() == "quit" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }

    let stats = server.shutdown();
    println!(
        "{}",
        Json::obj()
            .field("type", "shutdown")
            .field("accepted", stats.accepted)
            .field("completed", stats.completed)
            .field("dropped", stats.dropped())
            .render()
    );
    if stats.dropped() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
