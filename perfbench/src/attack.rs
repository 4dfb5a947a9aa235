//! The attack workloads: PoisonRec with the BCBT-Popular action space
//! against an in-process, undefended Steam twin. Neither touches the
//! serving or defense layers.
//!
//! The untraced run times `PoisonRecTrainer::step`. The traced run
//! drives the same Algorithm 1 step from this file through the
//! trainer's public parts (`PolicyNetwork::sample_episode`,
//! `ObservableSystem::observe_batch`, `PpoUpdater::update_batch`), then
//! replays every observation through `Ranker::boxed_clone`,
//! `Ranker::fine_tune` and `RankerSnapshot::rec_num` with the seed the
//! observation reports.

use std::time::Instant;

use poisonrec_repro::poisonrec::{
    normalize_rewards, ActionSpace, ActionSpaceKind, Episode, PoisonRecConfig, PoisonRecTrainer,
    PolicyConfig, PolicyNetwork, PpoConfig, PpoUpdater, StepStats,
};
use poisonrec_repro::recsys::rankers::common::child_seed;
use poisonrec_repro::recsys::system::{BlackBoxSystem, SystemConfig};
use poisonrec_repro::recsys::{LogView, RankerKind, RankerSnapshot, Trajectory};
use poisonrec_repro::{datasets::PaperDataset, tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::stats::{median, quantile, tail};
use crate::{Args, Outcome};

/// One attack workload: the victim's dataset scale and ranker.
pub struct AttackSpec {
    pub scale: f64,
    pub ranker: RankerKind,
    /// Scoring and kernel threads.
    pub threads: usize,
    /// Set-up is repeated this many times (at least three) and reported
    /// as the median; cheap set-ups get more rounds to steady it.
    pub setup_rounds: usize,
}

/// Trainer-bound: on the half-scale twin a BPR retrain is cheap next to
/// the PPO update.
pub const BPR: AttackSpec = AttackSpec {
    scale: 0.5,
    ranker: RankerKind::Bpr,
    threads: 1,
    setup_rounds: 7,
};

/// Observation-bound: a NeuMF fine-tune on the full-scale twin
/// dominates the step.
pub const NEUMF: AttackSpec = AttackSpec {
    scale: 1.0,
    ranker: RankerKind::NeuMf,
    threads: 2,
    setup_rounds: 3,
};

/// Episodes per step `M`, also the PPO batch `B`.
const EPISODES: usize = 8;
const POLICY_DIM: usize = 16;
/// Fake accounts `N` and clicks per account `T`.
const ATTACKERS: usize = 20;
const CLICKS: usize = 20;
const RESERVE: u32 = 32;
const EVAL_USERS: usize = 256;
/// Steps an independently built trainer runs to check determinism.
const CHECK_STEPS: usize = 2;
/// Observations re-timed through `observe_seeded` for the coverage of
/// the observation parts.
const COVERAGE_OBSERVATIONS: usize = 16;
/// Steps whose batches are re-scored at 1 and at 2 threads.
const POOL_STEPS: usize = 3;

fn system_config(seed: u64) -> SystemConfig {
    SystemConfig::builder()
        .eval_users(EVAL_USERS)
        .seed(child_seed(seed, 11))
        .reserve_attackers(RESERVE)
        .build()
        .expect("valid system config")
}

fn trainer_config(spec: &AttackSpec, seed: u64) -> PoisonRecConfig {
    PoisonRecConfig::builder()
        .policy(PolicyConfig {
            dim: POLICY_DIM,
            num_attackers: ATTACKERS,
            trajectory_len: CLICKS,
            init_scale: 0.1,
        })
        .ppo(PpoConfig {
            samples_per_step: EPISODES,
            batch: EPISODES,
            ..PpoConfig::default()
        })
        .action_space(ActionSpaceKind::BcbtPopular)
        .seed(child_seed(seed, 12))
        .threads(spec.threads)
        .build()
        .expect("valid trainer config")
}

/// One set-up: generate the twin, fit the victim, build the attacker.
struct Setup {
    dataset_s: f64,
    fit_s: f64,
    total_s: f64,
    system: BlackBoxSystem,
    trainer: PoisonRecTrainer,
}

fn set_up(spec: &AttackSpec, seed: u64) -> Setup {
    let start = Instant::now();
    let data = PaperDataset::Steam.generate_scaled(spec.scale, seed);
    let dataset_s = start.elapsed().as_secs_f64();
    let fit_start = Instant::now();
    let ranker = spec.ranker.build(&LogView::clean(&data), RESERVE);
    let system = BlackBoxSystem::build(data, ranker, system_config(seed));
    let fit_s = fit_start.elapsed().as_secs_f64();
    let trainer = PoisonRecTrainer::new(trainer_config(spec, seed), &system);
    Setup {
        dataset_s,
        fit_s,
        total_s: start.elapsed().as_secs_f64(),
        system,
        trainer,
    }
}

/// Bitwise equality of the reward-derived fields two runs must share.
fn same_step(a: &StepStats, b: &StepStats) -> bool {
    a.mean_reward.to_bits() == b.mean_reward.to_bits()
        && a.max_reward.to_bits() == b.max_reward.to_bits()
        && a.ppo_signal.to_bits() == b.ppo_signal.to_bits()
        && a.observations == b.observations
}

pub fn run(spec: &AttackSpec, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let setups: Vec<Setup> = (0..spec.setup_rounds)
        .map(|_| set_up(spec, args.seed))
        .collect();
    let totals: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    out.set("setup_s", median(&totals));
    let dataset_s: Vec<f64> = setups.iter().map(|s| s.dataset_s).collect();
    let fit_s: Vec<f64> = setups.iter().map(|s| s.fit_s).collect();
    out.set("setup.dataset_s", median(&dataset_s));
    out.set("setup.fit_s", median(&fit_s));

    let system = &setups[0].system;
    let base = system.base();
    out.note("dataset", format!("Steam x{}", spec.scale));
    out.note("users", base.num_users());
    out.note("items", base.num_items());
    out.note("targets", base.num_targets());
    out.note("ranker", system.ranker_name());
    out.note("defense", "none");
    out.note(
        "attack",
        format!(
            "PoisonRec BCBT-Popular M=B={EPISODES} dim={POLICY_DIM} N={ATTACKERS} T={CLICKS} threads={}",
            spec.threads
        ),
    );
    let clean = system.clean_rec_num();
    out.check(
        "every set-up builds the same victim",
        setups.iter().all(|s| s.system.clean_rec_num() == clean),
    );

    let mut setups = setups.into_iter();
    let first = setups.next().expect("set-up rounds");
    let second = setups.next().expect("set-up rounds");
    let third = setups.next().expect("set-up rounds");
    if args.trace {
        traced(spec, args, first, &second, &third, &mut out);
    } else {
        untraced(args, first, &second, &mut out);
    }
    out
}

/// Times `PoisonRecTrainer::step` for `--seconds` after one warm-up
/// step, then checks the history against an independently built
/// trainer.
fn untraced(args: &Args, first: Setup, second: &Setup, out: &mut Outcome) {
    let Setup {
        system,
        mut trainer,
        ..
    } = first;
    trainer.step(&system);
    let mut step_s = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        trainer.step(&system);
        step_s.push(t.elapsed().as_secs_f64());
    }
    let (step_tail, q) = tail(&step_s);
    out.set("op_p10_s", quantile(&step_s, 0.1));
    out.set("op_p25_s", quantile(&step_s, 0.25));
    out.set("op_p50_s", median(&step_s));
    out.set("op_tail_s", step_tail);
    out.set(
        "throughput_per_s",
        (step_s.len() * EPISODES) as f64 / step_s.iter().sum::<f64>(),
    );
    out.note("timed_steps", step_s.len());
    out.note("tail_quantile", q);

    let history = trainer.history();
    // The attack's writes: each step's batch of black-box observations
    // (inject, retrain, read RecNum), as the trainer times it.
    let score_s: Vec<f64> = history[1..].iter().map(|st| st.score_secs).collect();
    out.set("write_p10_s", quantile(&score_s, 0.1));
    out.set("write_p25_s", quantile(&score_s, 0.25));
    check_history(history, &system, out);
    let Setup {
        system: check_system,
        ..
    } = second;
    let mut reference = PoisonRecTrainer::new(*trainer.config(), check_system);
    let replayed = reference.train(check_system, CHECK_STEPS);
    out.check(
        "an independently built trainer reproduces the reward history",
        replayed.iter().zip(history).all(|(a, b)| same_step(a, b)),
    );
    out.attempted = system.observations_spent() + check_system.observations_spent();
}

fn check_history(history: &[StepStats], system: &BlackBoxSystem, out: &mut Outcome) {
    let max = system.max_rec_num() as f32;
    out.check(
        "each step spends exactly M observations",
        history
            .iter()
            .enumerate()
            .all(|(s, st)| st.observations == (EPISODES * (s + 1)) as u64),
    );
    out.check(
        "rewards lie within [0, max RecNum]",
        history
            .iter()
            .all(|st| (0.0..=max).contains(&st.mean_reward) && st.max_reward <= max),
    );
}

/// One observation made by the traced loop, kept for replay.
struct Observed {
    poison: Vec<Trajectory>,
    seed: u64,
    rec_num: u32,
}

/// Drives Algorithm 1 from this file (the same calls, in the same
/// order, as `PoisonRecTrainer::step`), timing each trainer layer, then
/// replays every observation through the observation layers.
fn traced(
    spec: &AttackSpec,
    args: &Args,
    first: Setup,
    second: &Setup,
    third: &Setup,
    out: &mut Outcome,
) {
    let system = &first.system;
    let cfg = *first.trainer.config();
    let info = system.public_info();
    let space = ActionSpace::build(
        cfg.action_space,
        info.num_items,
        info.target_items.len() as u32,
        &info.popularity,
        cfg.seed,
    );
    let mut policy = PolicyNetwork::new(cfg.policy, &space, cfg.seed);
    let mut updater = PpoUpdater::new(cfg.ppo, &policy);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xA11CE);

    let (mut sample_s, mut score_s, mut update_s, mut wall_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut stats: Vec<(f32, f32, f32)> = Vec::new();
    let mut observed: Vec<Observed> = Vec::new();
    let start = Instant::now();
    // One warm-up step, as in the untraced run, then `--seconds` more.
    while stats.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let step_start = Instant::now();
        tensor::kernel::set_threads(cfg.threads);
        let t = Instant::now();
        let mut episodes: Vec<Episode> = (0..cfg.ppo.samples_per_step)
            .map(|_| policy.sample_episode(&space, &mut rng))
            .collect();
        let sample = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let batch: Vec<&[Trajectory]> =
            episodes.iter().map(|e| e.trajectories.as_slice()).collect();
        let observations = system.observe_batch(&batch, cfg.threads);
        let score = t.elapsed().as_secs_f64();
        for (ep, obs) in episodes.iter_mut().zip(&observations) {
            ep.reward = obs.rec_num as f32;
        }

        let t = Instant::now();
        let mut signal = 0.0f32;
        for _ in 0..cfg.ppo.epochs {
            let mut idx: Vec<usize> = (0..episodes.len()).collect();
            idx.shuffle(&mut rng);
            idx.truncate(cfg.ppo.batch.min(episodes.len()));
            let picked: Vec<&Episode> = idx.iter().map(|&i| &episodes[i]).collect();
            let rewards: Vec<f32> = picked.iter().map(|e| e.reward).collect();
            let advantages = if cfg.ppo.normalize_rewards {
                normalize_rewards(&rewards)
            } else {
                rewards
            };
            signal += updater.update_batch(&mut policy, &picked, &advantages);
        }
        let update = t.elapsed().as_secs_f64();
        let wall = step_start.elapsed().as_secs_f64();

        let rewards: Vec<f32> = episodes.iter().map(|e| e.reward).collect();
        stats.push((
            tensor::util::mean(&rewards),
            rewards.iter().copied().fold(f32::NEG_INFINITY, f32::max),
            signal / cfg.ppo.epochs.max(1) as f32,
        ));
        if stats.len() > 1 {
            sample_s.push(sample);
            score_s.push(score);
            update_s.push(update);
            wall_s.push(wall);
        }
        for (ep, obs) in episodes.into_iter().zip(observations) {
            observed.push(Observed {
                poison: ep.trajectories,
                seed: obs.seed,
                rec_num: obs.rec_num,
            });
        }
    }
    out.set("trainer.sample_s", median(&sample_s));
    out.set("trainer.score_s", median(&score_s));
    out.set("trainer.update_s", median(&update_s));
    let layers: f64 = [&sample_s, &score_s, &update_s]
        .iter()
        .map(|v| v.iter().sum::<f64>())
        .sum();
    out.set("trainer.coverage", layers / wall_s.iter().sum::<f64>());
    out.note("timed_steps", wall_s.len());

    // The untraced run's trainer, built independently, must produce
    // the same reward history as the loop above.
    let mut reference = PoisonRecTrainer::new(cfg, &second.system);
    let replayed = reference.train(&second.system, CHECK_STEPS);
    out.check(
        "the traced loop's reward history equals PoisonRecTrainer's",
        replayed
            .iter()
            .zip(&stats)
            .all(|(a, &(mean, max, signal))| {
                a.mean_reward.to_bits() == mean.to_bits()
                    && a.max_reward.to_bits() == max.to_bits()
                    && a.ppo_signal.to_bits() == signal.to_bits()
            }),
    );

    // The observation layers, replayed on a clean ranker fitted exactly
    // as `BlackBoxSystem::build` fits the victim.
    let base = system.base();
    let mut clean = spec.ranker.build(&LogView::clean(base), RESERVE);
    clean.fit(&LogView::clean(base), child_seed(system.config().seed, 1));
    let clean_snapshot = RankerSnapshot::new(clean.boxed_clone(), 0, 0, base.num_users());
    out.check(
        "the replay's clean ranker matches the victim",
        clean_snapshot.rec_num(system.protocol(), base) == system.clean_rec_num(),
    );
    // Clone, fine-tune and evaluate, timed apart: what one observation
    // does inside `BlackBoxSystem`.
    let replay = |obs: &Observed| {
        let t = Instant::now();
        let mut ranker = clean.boxed_clone();
        let clone = t.elapsed().as_secs_f64();
        let t = Instant::now();
        ranker.fine_tune(&LogView::new(base, &obs.poison), obs.seed);
        let tune = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let snapshot = RankerSnapshot::new(ranker, 0, obs.seed, base.num_users());
        let rec_num = snapshot.rec_num(system.protocol(), base);
        let eval = t.elapsed().as_secs_f64();
        ([clone, tune, eval], rec_num == obs.rec_num)
    };
    let mut parts: Vec<[f64; 3]> = Vec::with_capacity(observed.len());
    let mut reproduced = true;
    for obs in &observed {
        let (times, same) = replay(obs);
        parts.push(times);
        reproduced &= same;
    }
    out.check(
        "every replayed observation reproduces its RecNum",
        reproduced,
    );
    let part = |i: usize| median(&parts.iter().map(|p| p[i]).collect::<Vec<f64>>());
    out.set("observe.clone_s", part(0));
    out.set("observe.fine_tune_s", part(1));
    out.set("observe.eval_s", part(2));
    let sequential: f64 = parts.iter().flatten().sum::<f64>() / parts.len() as f64;
    out.set(
        "pool.parallel_speedup",
        sequential * (wall_s.len() * EPISODES) as f64 / score_s.iter().sum::<f64>(),
    );

    // Coverage: the parts against whole `observe_seeded` calls on the
    // same observations, alternating so both see the same conditions.
    let (mut covered, mut whole) = (0.0, 0.0);
    let mut seeded_same = true;
    for obs in observed.iter().take(COVERAGE_OBSERVATIONS) {
        let t = Instant::now();
        let again = system.observe_seeded(&obs.poison, obs.seed);
        whole += t.elapsed().as_secs_f64();
        seeded_same &= again.rec_num == obs.rec_num;
        let (times, same) = replay(obs);
        covered += times.iter().sum::<f64>();
        seeded_same &= same;
    }
    out.set("observe.coverage", covered / whole);
    out.check(
        "observe_seeded reproduces the loop's observations",
        seeded_same,
    );

    // The pool lever: the same batches scored at 1 and at 2 threads.
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    for step in observed.chunks(EPISODES).take(POOL_STEPS) {
        let batch: Vec<&[Trajectory]> = step.iter().map(|o| o.poison.as_slice()).collect();
        for (threads, times) in [(1, &mut t1), (2, &mut t2)] {
            tensor::kernel::set_threads(threads);
            let t = Instant::now();
            third.system.observe_batch(&batch, threads);
            times.push(t.elapsed().as_secs_f64());
        }
    }
    out.set("pool.score_threads1_s", median(&t1));
    out.set("pool.score_threads2_s", median(&t2));

    out.attempted = system.observations_spent()
        + second.system.observations_spent()
        + third.system.observations_spent()
        + (observed.len() + 2 * COVERAGE_OBSERVATIONS.min(observed.len())) as u64;
}
