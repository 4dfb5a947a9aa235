//! E1 — §IV-B timing experiment: wall-clock time of one complete
//! PoisonRec training step under the Plain vs BCBT action spaces as the
//! item-set size grows (paper: 3,000 → 30,000 items; Plain 1.93 s →
//! 15.69 s, BCBT 1.41 s → 2.33 s, i.e. >6x at 30k).
//!
//! The recommender is replaced by a constant-time stand-in reward
//! (decision count) so the measurement isolates exactly what the paper
//! measures: trajectory sampling + PPO optimization cost.
//! Regenerates `results/timing.{csv,md}`.
//!
//! A second section times *real* full steps (BPR system retrains per
//! episode) with the scoring phase on 1 thread vs `--threads`, showing
//! the observation-engine speedup and that rewards stay identical.
//! Regenerates `results/timing_threads.{csv,md}`. With
//! `--telemetry run.jsonl` the real-step runs stream per-step events
//! (labelled with their thread count) plus a closing metrics snapshot.
//! With `--trace trace.json` the run records a Chrome trace (plus the
//! per-op autodiff profile) for `trace_report`. Speed claims about the
//! trainer are measured by the repository benchmark (`perfbench`,
//! `scripts/perf_pairs.sh`), not by this experiment.

use std::sync::Arc;
use std::time::Instant;

use analysis::{write_text, Table};
use bench::ExpArgs;
use datasets::PaperDataset;
use poisonrec::{
    ActionSpace, ActionSpaceKind, PolicyConfig, PolicyNetwork, PpoConfig, PpoUpdater, StepLogger,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recsys::rankers::RankerKind;
use telemetry::JsonlSink;

fn step_time(kind: ActionSpaceKind, num_items: u32, args: &ExpArgs, episodes: usize) -> f64 {
    let popularity: Vec<u32> = (0..num_items).map(|i| num_items - i).collect();
    let space = ActionSpace::build(kind, num_items, 8, &popularity, args.seed);
    let policy_cfg = PolicyConfig {
        dim: args.dim,
        num_attackers: args.attackers,
        trajectory_len: args.trajectory,
        init_scale: 0.1,
    };
    let mut policy = PolicyNetwork::new(policy_cfg, &space, args.seed);
    let ppo_cfg = PpoConfig {
        samples_per_step: episodes,
        batch: episodes,
        ..PpoConfig::default()
    };
    let mut updater = PpoUpdater::new(ppo_cfg, &policy);
    let mut rng = StdRng::seed_from_u64(args.seed);

    // One warm-up episode to touch all the code paths.
    let _ = policy.sample_episode(&space, &mut rng);

    let start = Instant::now();
    // Sample M episodes with a stand-in reward, then K PPO epochs —
    // one full Algorithm 1 step minus the recommender.
    let mut episodes_v = Vec::with_capacity(episodes);
    for _ in 0..episodes {
        let mut ep = policy.sample_episode(&space, &mut rng);
        // Stand-in reward must *vary* across episodes, or normalization
        // zeroes every advantage and PPO would skip its real work.
        ep.reward = (ep
            .trajectories
            .iter()
            .flatten()
            .map(|&i| u64::from(i))
            .sum::<u64>()
            % 1009) as f32;
        episodes_v.push(ep);
    }
    for _ in 0..ppo_cfg.epochs {
        let rewards: Vec<f32> = episodes_v.iter().map(|e| e.reward).collect();
        let advs = poisonrec::normalize_rewards(&rewards);
        let refs: Vec<&poisonrec::Episode> = episodes_v.iter().collect();
        updater.update_batch(&mut policy, &refs, &advs);
    }
    start.elapsed().as_secs_f64()
}

/// Times `steps` real training steps (every episode retrains a BPR
/// system) with the scoring phase capped at `threads`; returns
/// (seconds, final mean reward).
fn real_steps_time(
    args: &ExpArgs,
    threads: usize,
    steps: usize,
    sink: Option<&Arc<JsonlSink>>,
) -> (f64, f32) {
    // Size the cell so the M per-episode system retrains dominate the
    // step (that is what the thread knob parallelizes); keep the
    // policy small so sampling + PPO stay in the noise.
    let system = {
        let scaled = ExpArgs {
            scale: args.scale.max(0.12),
            eval_users: args.eval_users.max(256),
            ..args.clone()
        };
        scaled.build_system(PaperDataset::Phone, RankerKind::Bpr)
    };
    let cfg = {
        let mut cfg = args.poisonrec_config(ActionSpaceKind::BcbtPopular, 0xE1);
        cfg.policy.dim = cfg.policy.dim.min(16);
        cfg.ppo.samples_per_step = args.episodes;
        cfg.ppo.batch = args.episodes;
        cfg.threads = threads;
        cfg
    };
    let logger = sink.map(|sink| {
        StepLogger::new(Arc::clone(sink))
            .label("dataset", PaperDataset::Phone.name())
            .label("ranker", RankerKind::Bpr.name())
            .label("design", ActionSpaceKind::BcbtPopular.name())
            .label("threads", threads)
    });
    let start = Instant::now();
    // Per-thread-count slug: each lane checkpoints (and resumes)
    // independently under --checkpoint-every / --resume.
    let trainer = args.run_poisonrec(&system, cfg, steps, &format!("timing-t{threads}"), logger);
    let elapsed = start.elapsed().as_secs_f64();
    let mean = trainer.history().last().map_or(0.0, |s| s.mean_reward);
    (elapsed, mean)
}

fn main() {
    let args = ExpArgs::parse();
    let sink = args.open_telemetry("timing");
    args.init_trace();
    let sizes = [3_000u32, 10_000, 30_000];
    let episodes = args.episodes.min(8); // timing needs few episodes

    let mut table = Table::new(["items", "Plain (s)", "BCBT (s)", "speedup"]);
    println!("one full training step (sample {episodes} episodes + PPO), stand-in reward");
    for &n in &sizes {
        let plain = step_time(ActionSpaceKind::Plain, n, &args, episodes);
        let bcbt = step_time(ActionSpaceKind::BcbtPopular, n, &args, episodes);
        println!(
            "|I| = {n:>6}: Plain {plain:>7.3} s   BCBT {bcbt:>7.3} s   speedup {:.1}x",
            plain / bcbt
        );
        table.push([
            n.to_string(),
            format!("{plain:.3}"),
            format!("{bcbt:.3}"),
            format!("{:.2}", plain / bcbt),
        ]);
    }
    table
        .write_csv(args.out_dir.join("timing.csv"))
        .expect("write csv");
    write_text(args.out_dir.join("timing.md"), &table.to_markdown()).expect("write md");
    println!("wrote {}", args.out_dir.join("timing.{{csv,md}}").display());

    // Real steps: observation-engine scaling (BPR retrain per episode).
    let steps = args.steps.clamp(1, 3);
    println!(
        "\nreal training steps on Phone/BPR ({} episodes/step, {steps} steps):",
        args.episodes
    );
    let mut threads_table = Table::new(["threads", "time (s)", "speedup", "mean RecNum"]);
    let (base_time, base_reward) = real_steps_time(&args, 1, steps, sink.as_ref());
    let mut thread_counts = vec![1usize, 2, args.threads];
    thread_counts.sort_unstable();
    thread_counts.dedup();
    for threads in thread_counts {
        let (time, reward) = if threads == 1 {
            (base_time, base_reward)
        } else {
            real_steps_time(&args, threads, steps, sink.as_ref())
        };
        assert_eq!(
            reward, base_reward,
            "thread count changed rewards — determinism broken"
        );
        println!(
            "threads = {threads:>2}: {time:>7.3} s   speedup {:.2}x   mean RecNum {reward:.2}",
            base_time / time
        );
        threads_table.push([
            threads.to_string(),
            format!("{time:.3}"),
            format!("{:.2}", base_time / time),
            format!("{reward:.2}"),
        ]);
    }
    threads_table
        .write_csv(args.out_dir.join("timing_threads.csv"))
        .expect("write csv");
    write_text(
        args.out_dir.join("timing_threads.md"),
        &threads_table.to_markdown(),
    )
    .expect("write md");
    println!(
        "wrote {}",
        args.out_dir.join("timing_threads.{{csv,md}}").display()
    );
    if let Some(sink) = &sink {
        sink.emit_metrics_snapshot()
            .expect("telemetry metrics write");
    }
    args.finish_trace();
}
