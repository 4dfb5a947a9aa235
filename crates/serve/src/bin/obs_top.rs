//! `obs_top`: a terminal top-style viewer for a served instance's
//! live-metrics plane.
//!
//! ```text
//! obs_top --addr 127.0.0.1:8080 --interval-ms 1000
//! obs_top --addr 127.0.0.1:8080 --scrape prom --iters 1 --no-clear > scrape.prom
//! ```
//!
//! Polls `GET /metrics` and renders a refreshing table: windowed
//! rates, windowed latency quantiles, per-label family breakdown
//! (route/status), drift-detector state, and the cumulative
//! registry underneath. `--scrape prom` switches to raw Prometheus
//! text exposition pass-through — that mode is what `scripts/ci.sh`
//! uses to capture scrape files for `validate_prom`.
//!
//! Exits non-zero if a scrape fails or the server answers non-200;
//! with `--iters N` it stops after N scrapes (0 = run until killed).

use std::process::ExitCode;
use std::time::Duration;

use recsys::remote::HttpClient;
use telemetry::json::Json;

#[derive(Clone, Copy, PartialEq, Eq)]
enum ScrapeFormat {
    Json,
    Prom,
}

struct Args {
    addr: String,
    interval: Duration,
    iters: u64,
    window: Option<u32>,
    scrape: ScrapeFormat,
    clear: bool,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            addr: String::new(),
            interval: Duration::from_millis(1000),
            iters: 0,
            window: None,
            scrape: ScrapeFormat::Json,
            clear: true,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: obs_top --addr HOST:PORT [--interval-ms N] [--iters N]\n\
         \x20              [--window SECS] [--scrape json|prom] [--no-clear]\n\
         polls GET /metrics and renders a refreshing table (json) or the\n\
         raw Prometheus exposition (prom); --iters 0 runs until killed"
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
            "--addr" => args.addr = value("--addr"),
            "--interval-ms" => {
                args.interval = Duration::from_millis(
                    value("--interval-ms").parse().unwrap_or_else(|_| usage()),
                )
            }
            "--iters" => args.iters = value("--iters").parse().unwrap_or_else(|_| usage()),
            "--window" => {
                let secs: u32 = value("--window").parse().unwrap_or_else(|_| usage());
                if secs == 0 {
                    usage();
                }
                args.window = Some(secs);
            }
            "--scrape" => {
                args.scrape = match value("--scrape").as_str() {
                    "json" => ScrapeFormat::Json,
                    "prom" => ScrapeFormat::Prom,
                    other => {
                        eprintln!("unknown scrape format {other:?} (expected json|prom)");
                        usage()
                    }
                }
            }
            "--no-clear" => args.clear = false,
            _ => {
                eprintln!("unknown flag {flag:?}");
                usage();
            }
        }
    }
    if args.addr.is_empty() {
        eprintln!("--addr is required");
        usage();
    }
    args
}

fn metrics_path(args: &Args) -> String {
    let format = match args.scrape {
        ScrapeFormat::Json => "json",
        ScrapeFormat::Prom => "prom",
    };
    match args.window {
        Some(secs) => format!("/metrics?format={format}&window={secs}"),
        None => format!("/metrics?format={format}"),
    }
}

/// Compact significant-digit formatting: latencies live around 1e-4 s
/// and counts around 1e6, so one fixed precision fits neither.
fn fmt_num(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 0.001 && v.abs() < 100_000.0 {
        let s = format!("{v:.4}");
        let trimmed = s.trim_end_matches('0').trim_end_matches('.');
        trimmed.to_string()
    } else {
        format!("{v:.3e}")
    }
}

fn get_f64(obj: &Json, field: &str) -> f64 {
    obj.get(field).and_then(Json::as_f64).unwrap_or(0.0)
}

fn render_table(doc: &Json, addr: &str, scrape_no: u64, iters: u64) -> String {
    let mut out = String::new();
    let push_row = |out: &mut String, cols: &[(&str, usize)]| {
        for (text, width) in cols {
            out.push_str(&format!("{text:<width$}  ", width = width));
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };

    let progress = if iters == 0 {
        format!("{scrape_no}")
    } else {
        format!("{scrape_no}/{iters}")
    };
    out.push_str(&format!(
        "obs_top — live metrics @ {addr}  (scrape {progress})\n"
    ));

    let stream = doc.get("stream");
    if let Some(Json::Obj(entries)) = stream.and_then(|s| s.get("counters")) {
        if !entries.is_empty() {
            out.push_str("\nwindowed counters\n");
            push_row(
                &mut out,
                &[("  name", 36), ("count", 10), ("rate/s", 10), ("stale", 6)],
            );
            for (name, v) in entries {
                push_row(
                    &mut out,
                    &[
                        (&format!("  {name}"), 36),
                        (&fmt_num(get_f64(v, "count")), 10),
                        (&fmt_num(get_f64(v, "rate")), 10),
                        (&fmt_num(get_f64(v, "stale_records")), 6),
                    ],
                );
            }
        }
    }

    if let Some(Json::Obj(entries)) = stream.and_then(|s| s.get("histograms")) {
        if !entries.is_empty() {
            out.push_str("\nwindowed histograms\n");
            push_row(
                &mut out,
                &[
                    ("  name", 36),
                    ("count", 10),
                    ("rate/s", 10),
                    ("p50", 10),
                    ("p95", 10),
                    ("p99", 10),
                ],
            );
            for (name, v) in entries {
                push_row(
                    &mut out,
                    &[
                        (&format!("  {name}"), 36),
                        (&fmt_num(get_f64(v, "count")), 10),
                        (&fmt_num(get_f64(v, "rate")), 10),
                        (&fmt_num(get_f64(v, "p50")), 10),
                        (&fmt_num(get_f64(v, "p95")), 10),
                        (&fmt_num(get_f64(v, "p99")), 10),
                    ],
                );
            }
        }
    }

    if let Some(Json::Obj(fams)) = stream.and_then(|s| s.get("families")) {
        for (name, fam) in fams {
            let Some(Json::Obj(series)) = fam.get("series") else {
                continue;
            };
            out.push_str(&format!("\n{name} (top series by windowed rate)\n"));
            let mut rows: Vec<(&String, f64, f64)> = series
                .iter()
                .map(|(label, v)| (label, get_f64(v, "total"), get_f64(v, "rate")))
                .collect();
            rows.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| a.0.cmp(b.0)));
            const TOP: usize = 12;
            push_row(&mut out, &[("  labels", 44), ("total", 10), ("rate/s", 10)]);
            for (label, total, rate) in rows.iter().take(TOP) {
                push_row(
                    &mut out,
                    &[
                        (&format!("  {{{label}}}"), 44),
                        (&fmt_num(*total), 10),
                        (&fmt_num(*rate), 10),
                    ],
                );
            }
            if rows.len() > TOP {
                out.push_str(&format!("  … (+{} more series)\n", rows.len() - TOP));
            }
            let overflow = get_f64(fam, "overflow_events");
            if overflow > 0.0 {
                out.push_str(&format!("  overflow_events={}\n", fmt_num(overflow)));
            }
        }
    }

    if let Some(Json::Obj(dets)) = stream.and_then(|s| s.get("detectors")) {
        if !dets.is_empty() {
            out.push_str("\ndrift detectors\n");
            push_row(
                &mut out,
                &[
                    ("  name", 36),
                    ("obs", 8),
                    ("mean", 10),
                    ("alarm", 8),
                    ("drift?", 6),
                ],
            );
            for (name, v) in dets {
                let drifted = v.get("drifted").and_then(Json::as_bool).unwrap_or(false);
                push_row(
                    &mut out,
                    &[
                        (&format!("  {name}"), 36),
                        (&fmt_num(get_f64(v, "observations")), 8),
                        (&fmt_num(get_f64(v, "mean")), 10),
                        (&fmt_num(get_f64(v, "alarms")), 8),
                        (if drifted { "DRIFT" } else { "-" }, 6),
                    ],
                );
            }
        }
    }

    if let Json::Obj(entries) = doc {
        let mut wrote_header = false;
        for (name, v) in entries {
            let rendered = match v {
                Json::U64(c) => format!("{c}"),
                Json::I64(g) => format!("{g}"),
                _ => continue, // cumulative histograms + the "stream" subtree
            };
            if !wrote_header {
                out.push_str("\ncumulative counters / gauges\n");
                wrote_header = true;
            }
            push_row(&mut out, &[(&format!("  {name}"), 44), (&rendered, 12)]);
        }
    }
    out
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut client = HttpClient::new(args.addr.clone()).with_read_timeout(Duration::from_secs(10));
    let path = metrics_path(&args);

    let mut scrape_no = 0u64;
    loop {
        scrape_no += 1;
        match args.scrape {
            ScrapeFormat::Prom => match client.request_text("GET", &path, None) {
                Ok((200, body)) => {
                    if args.clear {
                        print!("\x1b[2J\x1b[H");
                    }
                    print!("{body}");
                }
                Ok((status, body)) => {
                    eprintln!("scrape failed: server returned {status}: {body}");
                    return ExitCode::FAILURE;
                }
                Err(err) => {
                    eprintln!("scrape failed: {err}");
                    return ExitCode::FAILURE;
                }
            },
            ScrapeFormat::Json => match client.request("GET", &path, None) {
                Ok((200, doc)) => {
                    let frame = render_table(&doc, &args.addr, scrape_no, args.iters);
                    if args.clear {
                        print!("\x1b[2J\x1b[H");
                    }
                    print!("{frame}");
                }
                Ok((status, body)) => {
                    eprintln!("scrape failed: server returned {status}: {}", body.render());
                    return ExitCode::FAILURE;
                }
                Err(err) => {
                    eprintln!("scrape failed: {err}");
                    return ExitCode::FAILURE;
                }
            },
        }
        use std::io::Write;
        let _ = std::io::stdout().flush();
        if args.iters > 0 && scrape_no >= args.iters {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(args.interval);
    }
}
