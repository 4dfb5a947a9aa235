//! Reward-noise study: the RL agent's reward is RecNum after a
//! stochastic warm retrain, so the same trajectory set yields different
//! rewards across observations. This bin quantifies that noise per
//! ranker (mean ± std over repeated observations of one fixed poison),
//! which explains why Eq. 8's batch normalization matters and how many
//! episodes per step are needed.
//!
//! Writes `results/variance.{csv,md}`. With `--telemetry run.jsonl`,
//! streams one `observation` event per (ranker, repetition) — the
//! observed RecNum plus its wall-clock cost — and a closing metrics
//! snapshot.
//!
//! ## Checkpoint/resume
//!
//! This bin has no trainer, so its unit of progress is the completed
//! `(ranker, rep)` observation. With `--checkpoint-every N` the
//! accumulated observations are snapshotted (same sealed container
//! format as zoo checkpoints, fingerprinted against the run
//! config) after every N-th ranker; `--resume DIR` reloads them and
//! skips the work — resumed entries contribute their recorded RecNum
//! without re-observing, and their telemetry events are not re-emitted
//! (the first run's log already has them). `--fault-kill-step K`
//! simulates a crash after the K-th ranker.

use std::collections::HashMap;
use std::time::Instant;

use analysis::{write_text, Table};
use baselines::{AttackFamily, ZooTuning};
use bench::ExpArgs;
use datasets::PaperDataset;
use poisonrec::checkpoint::{atomic_write, fnv1a64, seal, unseal};
use runtime::FaultPlan;
use telemetry::Json;
use tensor::util::{mean, std_dev};
use tensor::wire::{Reader, Writer};

const REPS: u64 = 8;

/// Everything that decides an observation's value: dataset geometry,
/// system seeds, and the fixed attack. Two runs agreeing here produce
/// identical RecNum samples, so cached entries are interchangeable.
fn variance_fingerprint(args: &ExpArgs) -> u64 {
    let mut w = Writer::new();
    w.put_f64(args.scale);
    w.put_u64(args.seed);
    w.put_u64(args.eval_users as u64);
    w.put_u64(args.attackers as u64);
    w.put_u64(args.trajectory as u64);
    w.put_u64(REPS);
    for ranker in args.ranker_list() {
        w.put_str(ranker.name());
    }
    fnv1a64(&w.into_bytes())
}

type Progress = HashMap<(String, u64), u32>;

fn load_progress(args: &ExpArgs) -> Progress {
    let Some(path) = args.resume_path("variance") else {
        return Progress::new();
    };
    let bytes = std::fs::read(&path)
        .unwrap_or_else(|err| panic!("cannot read checkpoint {}: {err}", path.display()));
    let (fingerprint, body) =
        unseal(&bytes).unwrap_or_else(|err| panic!("cannot resume from {}: {err}", path.display()));
    assert_eq!(
        fingerprint,
        variance_fingerprint(args),
        "checkpoint {} was written under a different configuration; refusing to resume",
        path.display()
    );
    let progress = decode_progress(body)
        .unwrap_or_else(|err| panic!("malformed checkpoint {}: {err}", path.display()));
    println!(
        "resumed {} completed observation(s) from {}",
        progress.len(),
        path.display()
    );
    progress
}

fn decode_progress(body: &[u8]) -> Result<Progress, tensor::wire::WireError> {
    let mut r = Reader::new(body);
    // Each entry is at least a name length (8) + rep (8) + RecNum (4).
    let n = r.get_len(20, "observation count")?;
    let mut progress = Progress::with_capacity(n);
    for _ in 0..n {
        let ranker = r.get_str("ranker name")?;
        let rep = r.get_u64("repetition")?;
        let rec_num = r.get_u32("rec_num")?;
        progress.insert((ranker, rep), rec_num);
    }
    r.expect_eof()?;
    Ok(progress)
}

fn save_progress(args: &ExpArgs, progress: &Progress) {
    let Some(path) = args.checkpoint_path("variance") else {
        return;
    };
    let mut w = Writer::new();
    w.put_u64(progress.len() as u64);
    // BTreeMap-order the entries so identical progress always produces
    // identical bytes.
    let mut entries: Vec<_> = progress.iter().collect();
    entries.sort();
    for ((ranker, rep), rec_num) in entries {
        w.put_str(ranker);
        w.put_u64(*rep);
        w.put_u32(*rec_num);
    }
    let sealed = seal(variance_fingerprint(args), &w.into_bytes());
    atomic_write(&path, &sealed)
        .unwrap_or_else(|err| panic!("cannot write checkpoint {}: {err}", path.display()));
}

fn main() {
    let args = ExpArgs::parse();
    let sink = args.open_telemetry("variance");
    let mut progress = load_progress(&args);
    let fault = args
        .fault_kill_step
        .map(|step| FaultPlan::new().kill_at_step(step));
    let mut table = Table::new(["ranker", "mean_recnum", "std", "coeff_of_variation"]);
    for (r_idx, ranker) in args.ranker_list().into_iter().enumerate() {
        // Skip the expensive system build when every rep is cached.
        let all_cached =
            (0..REPS).all(|rep| progress.contains_key(&(ranker.name().to_string(), rep)));
        let cell = if all_cached {
            None
        } else {
            let system = args.build_system(PaperDataset::Steam, ranker);
            // A fixed mid-strength attack: the Popular heuristic.
            let tuning = ZooTuning {
                seed: args.seed,
                ..ZooTuning::default()
            };
            let poison = AttackFamily::Popular
                .craft(&tuning, &system, args.attackers, args.trajectory)
                .expect("Popular crafts within its budget");
            Some((system, poison))
        };
        let samples: Vec<f32> = (0..REPS)
            .map(|rep| {
                let key = (ranker.name().to_string(), rep);
                if let Some(&rec_num) = progress.get(&key) {
                    return rec_num as f32;
                }
                let (system, poison) = cell.as_ref().expect("built when any rep is missing");
                let watch = Instant::now();
                let rec_num = system.inject_and_observe_seeded(poison, 500 + rep);
                if let Some(sink) = &sink {
                    let event = Json::obj()
                        .field("type", "observation")
                        .field("ranker", ranker.name())
                        .field("rep", rep)
                        .field("rec_num", u64::from(rec_num))
                        .field("observe_secs", watch.elapsed().as_secs_f64());
                    sink.emit(&event).expect("telemetry observation write");
                }
                progress.insert(key, rec_num);
                rec_num as f32
            })
            .collect();
        if args.checkpoint_every > 0 && (r_idx + 1).is_multiple_of(args.checkpoint_every) {
            save_progress(&args, &progress);
        }
        if let Some(plan) = &fault {
            plan.kill_if_due((r_idx + 1) as u64);
        }
        let (mu, sigma) = (mean(&samples), std_dev(&samples));
        let cv = if mu > 0.0 { sigma / mu } else { 0.0 };
        println!(
            "{:<14} mean {:>8.1}  std {:>7.2}  cv {:.2}",
            ranker.name(),
            mu,
            sigma,
            cv
        );
        table.push([
            ranker.name().to_string(),
            format!("{mu:.1}"),
            format!("{sigma:.2}"),
            format!("{cv:.3}"),
        ]);
    }
    table
        .write_csv(args.out_dir.join("variance.csv"))
        .expect("write csv");
    write_text(args.out_dir.join("variance.md"), &table.to_markdown()).expect("write md");
    println!(
        "wrote {}",
        args.out_dir.join("variance.{{csv,md}}").display()
    );
    if let Some(sink) = &sink {
        sink.emit_metrics_snapshot()
            .expect("telemetry metrics write");
    }
}
