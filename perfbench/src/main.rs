//! The repository benchmark: one command that runs a named workload,
//! checks its outputs, and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload attack-bpr --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//!
//! * `attack-bpr` — PoisonRec (BCBT-Popular) against an in-process
//!   half-scale Steam twin × BPR. Trainer-bound: PPO update dominates.
//! * `attack-neumf` — the same attack against the full-scale Steam twin
//!   × NeuMF. Observation-bound: the per-episode retrain dominates.
//! * `serve-mixed` — a defended (`DefenseKind::Full`) HTTP server over a
//!   Steam twin × BPR, driven by a closed loop of two keep-alive
//!   connections: Zipf reads beside feedback and retrain writes.
//!
//! `--trace 0` measures the end-to-end metrics with nothing but the
//! workload running. `--trace 1` runs the same workload and then
//! replays its inputs through each layer's public calls, timing them
//! from this file, to give the per-layer metrics; the program itself
//! carries no extra instrumentation.
//!
//! Standard output ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! An earlier line carries the run manifest (core count, source
//! revision, seed and workload fingerprint).

mod attack;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics, printed by every `--trace 0` run: (name, unit).
/// Every workload reports each of them. The "operation" is one model
/// update round: a trainer step on the attack workloads, a
/// `POST /retrain` on `serve-mixed`. The "write" is the poison going in:
/// a step's batch of black-box observations on the attack workloads, a
/// `POST /feedback` on `serve-mixed`.
///
/// On a small shared machine, stalls of the whole box come and go and
/// move medians by 10-30% from run to run, while the 10th percentile
/// stays within a few percent; so the gated latencies are 10th
/// percentiles. The 25th and 50th percentiles, tails and throughput are
/// measured in the same run and printed in the manifest line.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("op_p10_s", "s"), ("write_p10_s", "s")];

/// Per-layer metrics, printed by every `--trace 1` run. Times are the
/// median per call (per step for the trainer layers); coverages compare
/// sums. A layer that a workload never calls (the HTTP layers on the
/// attack workloads, the trainer on `serve-mixed`) reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.dataset_s", "s"),
    ("setup.fit_s", "s"),
    ("setup.server_start_s", "s"),
    ("trainer.sample_s", "s"),
    ("trainer.score_s", "s"),
    ("trainer.update_s", "s"),
    ("trainer.coverage", "share"),
    ("observe.clone_s", "s"),
    ("observe.fine_tune_s", "s"),
    ("observe.eval_s", "s"),
    ("observe.coverage", "share"),
    ("pool.parallel_speedup", "x"),
    ("pool.score_threads1_s", "s"),
    ("pool.score_threads2_s", "s"),
    ("defense.calibrate_s", "s"),
    ("defense.judge_organic_s", "s"),
    ("defense.judge_attacker_s", "s"),
    ("defense.flag_share", "share"),
    ("http.parse_s", "s"),
    ("http.render_s", "s"),
    ("app.recommend_hit_s", "s"),
    ("app.recommend_miss_s", "s"),
    ("app.feedback_s", "s"),
    ("app.retrain_s", "s"),
    ("retrain.fit_s", "s"),
    ("snapshot.cache_hit_share", "share"),
    ("wire.recommend_s", "s"),
    ("route.recommend_p50_s", "s"),
    ("route.recommend_tail_s", "s"),
    ("route.feedback_p50_s", "s"),
    ("route.feedback_tail_s", "s"),
    ("route.retrain_p50_s", "s"),
    ("route.retrain_tail_s", "s"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let secs: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(secs > 0.0 && secs.is_finite()) {
                        return Err(format!("seconds must be positive, got {value}"));
                    }
                    seconds = Some(secs);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// What one workload run hands back for printing.
#[derive(Default)]
pub struct Outcome {
    /// Measured metrics by name; units come from the tables above.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed (observations for the attacks,
    /// HTTP requests for serving), the base of the failure share.
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Workload fingerprint for the manifest, as `key=value` pairs.
    pub fingerprint: Vec<(&'static str, String)>,
    /// Observations about the program that are reported but do not
    /// decide correctness.
    pub findings: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.fingerprint.push((key, value.to_string()));
    }

    pub fn finding(&mut self, key: &'static str, value: impl ToString) {
        self.findings.push((key, value.to_string()));
    }
}

/// The source revision when the run sits in a git checkout, else
/// `"unknown"` (the benchmark is also run from exported trees).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|rev| rev.trim().to_string())
            .unwrap_or_else(|_| reference.to_string()),
        None => head,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "attack-bpr" => attack::run(&attack::BPR, &args),
        "attack-neumf" => attack::run(&attack::NEUMF, &args),
        "serve-mixed" => serve::run(&args),
        other => {
            eprintln!(
                "perfbench: unknown workload {other:?} (attack-bpr, attack-neumf, serve-mixed)"
            );
            return ExitCode::from(2);
        }
    };

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut rendered = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match outcome.metrics.get(name) {
            Some(&value) => value,
            // Only per-layer metrics may be absent: a layer this
            // workload bypasses did no work.
            None if args.trace => 0.0,
            None => panic!("workload {} did not measure {name}", args.workload),
        };
        assert!(value.is_finite(), "{name} is not finite: {value}");
        rendered.push(format!(
            "{}: {{\"value\": {value:?}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    for (name, ok) in &outcome.checks {
        if !ok {
            eprintln!("perfbench: check failed: {name}");
        }
    }
    let correct = outcome.attempted > 0 && outcome.checks.iter().all(|(_, ok)| *ok);

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pairs = |pairs: &[(&str, String)]| {
        pairs
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect::<Vec<String>>()
            .join(", ")
    };
    let others: Vec<String> = outcome
        .metrics
        .iter()
        .filter(|(name, _)| !table.iter().any(|(t, _)| t == *name))
        .map(|(name, value)| format!("{}: {value:?}", json_str(name)))
        .collect();
    let checks: Vec<String> = outcome
        .checks
        .iter()
        .map(|(name, ok)| format!("{}: {ok}", json_str(name)))
        .collect();
    println!(
        "{{\"manifest\": {{\"nproc\": {nproc}, \"git_rev\": {}, \"workload\": {}, \"seed\": {}, \
         \"seconds\": {:?}, \"trace\": {}, \"fingerprint\": {{{}}}, \"checks\": {{{}}}, \
         \"findings\": {{{}}}, \"other_metrics\": {{{}}}}}}}",
        json_str(&git_rev()),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pairs(&outcome.fingerprint),
        checks.join(", "),
        pairs(&outcome.findings),
        others.join(", "),
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        rendered.join(", ")
    );
    ExitCode::SUCCESS
}
