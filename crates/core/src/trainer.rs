//! Algorithm 1: the outer PoisonRec training loop.
//!
//! Each training step samples `M` episodes from the policy, injects
//! every episode's trajectory set into the black-box system to observe
//! its RecNum reward, then runs `K` PPO epochs over random batches of
//! `B` stored examples with Eq. 8-normalized rewards.
//!
//! ## Threading
//!
//! [`PoisonRecTrainer::step`] is split into two phases. The *sample*
//! phase draws all `M` episodes sequentially — it owns the trainer's
//! RNG, and keeping it single-threaded keeps the policy's sampling
//! stream independent of thread count. The *scoring* phase hands the
//! sampled trajectory sets to [`ObservableSystem::observe_batch`], which
//! retrains up to [`PoisonRecConfig::threads`] system clones in
//! parallel. Observation seeds are fixed before dispatch, so a step's
//! rewards — and therefore the whole training run — are bit-identical
//! for every `threads` value.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use recsys::system::{ConfigError, ObservableSystem};
use recsys::Trajectory;
use telemetry::{Json, JsonlSink};

use crate::action::{ActionSpace, ActionSpaceKind};
use crate::checkpoint::{CheckpointError, TrainerState};
use crate::policy::{Episode, PolicyConfig, PolicyNetwork};
use crate::ppo::{normalize_rewards, PpoConfig, PpoUpdater};

/// Full PoisonRec configuration (paper defaults).
#[derive(Copy, Clone, Debug)]
pub struct PoisonRecConfig {
    pub policy: PolicyConfig,
    pub ppo: PpoConfig,
    pub action_space: ActionSpaceKind,
    pub seed: u64,
    /// Upper bound on concurrent system retrains per scoring phase.
    /// `1` (the default) keeps every observation on the calling
    /// thread; results are identical either way.
    pub threads: usize,
}

impl Default for PoisonRecConfig {
    fn default() -> Self {
        Self {
            policy: PolicyConfig::default(),
            ppo: PpoConfig::default(),
            action_space: ActionSpaceKind::BcbtPopular,
            seed: 1,
            threads: 1,
        }
    }
}

impl PoisonRecConfig {
    /// A validating builder seeded with the paper defaults.
    pub fn builder() -> PoisonRecConfigBuilder {
        PoisonRecConfigBuilder {
            cfg: Self::default(),
        }
    }
}

/// Builds a [`PoisonRecConfig`], rejecting degenerate values before
/// they turn into mid-training panics or silent no-op steps.
#[derive(Clone, Debug)]
pub struct PoisonRecConfigBuilder {
    cfg: PoisonRecConfig,
}

impl PoisonRecConfigBuilder {
    pub fn policy(mut self, policy: PolicyConfig) -> Self {
        self.cfg.policy = policy;
        self
    }

    pub fn ppo(mut self, ppo: PpoConfig) -> Self {
        self.cfg.ppo = ppo;
        self
    }

    pub fn action_space(mut self, action_space: ActionSpaceKind) -> Self {
        self.cfg.action_space = action_space;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<PoisonRecConfig, ConfigError> {
        let cfg = self.cfg;
        if cfg.ppo.samples_per_step == 0 {
            return Err(ConfigError {
                field: "ppo.samples_per_step",
                message: "a step must sample at least one episode".into(),
            });
        }
        if cfg.ppo.batch == 0 {
            return Err(ConfigError {
                field: "ppo.batch",
                message: "PPO batches must contain at least one episode".into(),
            });
        }
        if cfg.policy.num_attackers == 0 {
            return Err(ConfigError {
                field: "policy.num_attackers",
                message: "an attack needs at least one fake account".into(),
            });
        }
        if cfg.threads == 0 {
            return Err(ConfigError {
                field: "threads",
                message: "at least one scoring thread is required".into(),
            });
        }
        Ok(cfg)
    }

    /// [`PoisonRecConfigBuilder::build`] plus checks against the target
    /// system: the policy must not sample more fake accounts than the
    /// system reserves, or every injection would be rejected at
    /// observation time.
    pub fn build_for(self, system: &dyn ObservableSystem) -> Result<PoisonRecConfig, ConfigError> {
        let reserve = system.config().reserve_attackers as usize;
        let cfg = self.build()?;
        if cfg.policy.num_attackers > reserve {
            return Err(ConfigError {
                field: "policy.num_attackers",
                message: format!(
                    "policy samples {} fake accounts but the system reserves only {reserve}",
                    cfg.policy.num_attackers
                ),
            });
        }
        Ok(cfg)
    }
}

/// Per-step training telemetry (drives Figure 4 and the run logs).
#[derive(Copy, Clone, Debug)]
pub struct StepStats {
    pub step: usize,
    /// Mean RecNum over the step's sampled episodes.
    pub mean_reward: f32,
    /// Best RecNum in the step.
    pub max_reward: f32,
    /// Mean fraction of clicks on target items (drives Figure 5).
    pub target_click_ratio: f64,
    /// Mean |weight| diagnostic from the PPO epochs.
    pub ppo_signal: f32,
    /// Wall-clock seconds of the *sample* phase: drawing the step's
    /// `M` episodes from the policy (sequential, owns the trainer RNG).
    pub sample_secs: f64,
    /// Wall-clock seconds of the *score* phase: the `M` black-box
    /// system retrains, fanned over [`PoisonRecConfig::threads`].
    pub score_secs: f64,
    /// Wall-clock seconds of the *update* phase: the `K` PPO epochs.
    pub update_secs: f64,
    /// Cumulative black-box observations this trainer has spent over
    /// its lifetime — the attack's query budget, `M` per step. After
    /// step `s` (0-based) this is exactly `M * (s + 1)`.
    pub observations: u64,
}

/// Streams one JSONL event line per [`PoisonRecTrainer::step`] into a
/// shared [`JsonlSink`], tagged with caller-supplied labels (dataset,
/// ranker, action-space design, ...) so many concurrent trainers can
/// interleave in one run log. See DESIGN.md §5b for the schema.
#[derive(Clone)]
pub struct StepLogger {
    sink: Arc<JsonlSink>,
    labels: Vec<(String, Json)>,
}

impl StepLogger {
    pub fn new(sink: Arc<JsonlSink>) -> Self {
        Self {
            sink,
            labels: Vec::new(),
        }
    }

    /// Adds a constant label emitted on every step event.
    pub fn label(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.labels.push((key.to_string(), value.into()));
        self
    }

    fn log(&self, stats: &StepStats) {
        let mut line = Json::obj().field("type", "step");
        for (key, value) in &self.labels {
            line = line.field(key, value.clone());
        }
        let line = line
            .field("step", stats.step)
            .field("mean_reward", stats.mean_reward)
            .field("max_reward", stats.max_reward)
            .field("target_click_ratio", stats.target_click_ratio)
            .field("ppo_signal", stats.ppo_signal)
            .field("sample_secs", stats.sample_secs)
            .field("score_secs", stats.score_secs)
            .field("update_secs", stats.update_secs)
            .field("observations", stats.observations);
        self.sink.emit(&line).expect("telemetry sink write failed");
    }
}

/// The attack agent: policy + action space + PPO state + history.
pub struct PoisonRecTrainer {
    cfg: PoisonRecConfig,
    space: ActionSpace,
    policy: PolicyNetwork,
    updater: PpoUpdater,
    rng: StdRng,
    history: Vec<StepStats>,
    best: Option<Episode>,
    /// Lifetime observation spend (`M` per step); see
    /// [`StepStats::observations`].
    observations: u64,
    logger: Option<StepLogger>,
}

impl PoisonRecTrainer {
    /// Builds the agent against a system, using only the system's
    /// *public* information (item counts and crawled popularity).
    pub fn new(cfg: PoisonRecConfig, system: &dyn ObservableSystem) -> Self {
        let info = system.public_info();
        let space = ActionSpace::build(
            cfg.action_space,
            info.num_items,
            info.target_items.len() as u32,
            &info.popularity,
            cfg.seed,
        );
        let policy = PolicyNetwork::new(cfg.policy, &space, cfg.seed);
        let updater = PpoUpdater::new(cfg.ppo, &policy);
        Self {
            cfg,
            space,
            policy,
            updater,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xA11CE),
            history: Vec::new(),
            best: None,
            observations: 0,
            logger: None,
        }
    }

    /// Streams every future step's [`StepStats`] to `logger`'s JSONL
    /// sink. Telemetry is write-only: attaching a logger cannot change
    /// any sampled episode or reward.
    pub fn attach_logger(&mut self, logger: StepLogger) {
        self.logger = Some(logger);
    }

    pub fn config(&self) -> &PoisonRecConfig {
        &self.cfg
    }

    pub fn policy(&self) -> &PolicyNetwork {
        &self.policy
    }

    pub fn action_space(&self) -> &ActionSpace {
        &self.space
    }

    pub fn history(&self) -> &[StepStats] {
        &self.history
    }

    /// The highest-reward episode observed so far.
    pub fn best_episode(&self) -> Option<&Episode> {
        self.best.as_ref()
    }

    /// Re-binds the scoring/kernel thread budget. Training is
    /// thread-count invariant, so this only changes wall time — the
    /// zoo driver uses it to run one configured trainer at whatever
    /// parallelism the current cell asks for.
    pub fn set_threads(&mut self, threads: usize) {
        self.cfg.threads = threads.max(1);
    }

    /// The complete serializable trainer closure, which
    /// [`crate::zoo::PoisonRecAttack`] embeds in its zoo checkpoints.
    pub fn export_state(&self) -> TrainerState {
        TrainerState {
            rng_state: self.rng.state(),
            observations: self.observations,
            params: self.policy.params().clone(),
            optimizer: self.updater.optimizer().clone(),
            best: self.best.clone(),
            history: self.history.clone(),
        }
    }

    /// One Algorithm 1 iteration. Costs `M` system retrains, fanned
    /// out over up to [`PoisonRecConfig::threads`] threads.
    pub fn step(&mut self, system: &dyn ObservableSystem) -> StepStats {
        let m = self.cfg.ppo.samples_per_step;
        // Let the tensor kernels use the same thread budget as the
        // scoring fan-out. Kernel results are bit-identical at any
        // thread count, so this only changes wall time.
        tensor::kernel::set_threads(self.cfg.threads);

        // Sample phase (sequential): the only consumer of the trainer
        // RNG, so the policy's sampling stream never depends on how
        // the scoring phase is scheduled.
        let sample_span = telemetry::span!("trainer", "sample");
        let mut episodes: Vec<Episode> = (0..m)
            .map(|_| self.policy.sample_episode(&self.space, &mut self.rng))
            .collect();
        let sample_secs = sample_span.finish();

        // Scoring phase (parallel): M independent system retrains.
        let score_span = telemetry::span!("trainer", "score");
        let batch: Vec<&[Trajectory]> =
            episodes.iter().map(|e| e.trajectories.as_slice()).collect();
        let observations = system.observe_batch(&batch, self.cfg.threads);
        for (ep, obs) in episodes.iter_mut().zip(&observations) {
            ep.reward = obs.rec_num as f32;
        }
        let score_secs = score_span.finish();
        self.observations += observations.len() as u64;

        // Track the step's champion by index; clone at most once per
        // step, and only when it beats the all-time best.
        let mut step_best: Option<usize> = None;
        for (i, ep) in episodes.iter().enumerate() {
            if step_best.is_none_or(|j| ep.reward > episodes[j].reward) {
                step_best = Some(i);
            }
        }
        if let Some(i) = step_best {
            if self
                .best
                .as_ref()
                .is_none_or(|b| episodes[i].reward > b.reward)
            {
                self.best = Some(episodes[i].clone());
            }
        }

        let update_span = telemetry::span!("trainer", "update");
        let mut signal_sum = 0.0f32;
        for _ in 0..self.cfg.ppo.epochs {
            let mut idx: Vec<usize> = (0..episodes.len()).collect();
            idx.shuffle(&mut self.rng);
            idx.truncate(self.cfg.ppo.batch.min(episodes.len()));
            let batch: Vec<&Episode> = idx.iter().map(|&i| &episodes[i]).collect();
            let rewards: Vec<f32> = batch.iter().map(|e| e.reward).collect();
            let advantages = if self.cfg.ppo.normalize_rewards {
                normalize_rewards(&rewards)
            } else {
                rewards.clone()
            };
            signal_sum += self
                .updater
                .update_batch(&mut self.policy, &batch, &advantages);
        }
        let update_secs = update_span.finish();

        let rewards: Vec<f32> = episodes.iter().map(|e| e.reward).collect();
        let num_items = system.public_info().num_items;
        let stats = StepStats {
            step: self.history.len(),
            mean_reward: tensor::util::mean(&rewards),
            max_reward: rewards.iter().copied().fold(f32::NEG_INFINITY, f32::max),
            target_click_ratio: episodes
                .iter()
                .map(|e| e.target_click_ratio(num_items))
                .sum::<f64>()
                / episodes.len() as f64,
            ppo_signal: signal_sum / self.cfg.ppo.epochs.max(1) as f32,
            sample_secs,
            score_secs,
            update_secs,
            observations: self.observations,
        };
        telemetry::metrics::counter("trainer_steps_total").inc();
        if let Some(logger) = &self.logger {
            logger.log(&stats);
        }
        self.history.push(stats);
        stats
    }

    /// Runs `steps` iterations; returns the accumulated history.
    pub fn train(&mut self, system: &dyn ObservableSystem, steps: usize) -> &[StepStats] {
        for _ in 0..steps {
            self.step(system);
        }
        &self.history
    }

    /// Samples a fresh attack (no injection) from the current policy —
    /// what the attacker deploys after training.
    pub fn sample_attack(&mut self) -> Episode {
        self.policy.sample_episode(&self.space, &mut self.rng)
    }

    /// Overwrites this trainer's state with a decoded [`TrainerState`],
    /// validating shape agreement first so a mismatch surfaces here
    /// rather than as a panic deep inside a later step. Also
    /// fast-forwards `system`'s observation stream, so `system` must be
    /// freshly built (a rewind is refused); the restored trainer's next
    /// [`PoisonRecTrainer::step`] produces exactly the bytes the
    /// interrupted run's would have.
    pub fn restore_state(
        &mut self,
        state: TrainerState,
        system: &dyn ObservableSystem,
    ) -> Result<(), CheckpointError> {
        let malformed = |msg: String| Err(CheckpointError::Format(msg));
        let expected = self.policy.params();
        if state.params.len() != expected.len() {
            return malformed(format!(
                "checkpoint stores {} parameter matrices but this policy has {}",
                state.params.len(),
                expected.len()
            ));
        }
        for (id, matrix) in expected.iter() {
            let name = expected.name(id);
            if state.params.name(id) != name {
                return malformed(format!(
                    "parameter {} is named {:?} in the checkpoint, expected {name:?}",
                    id.index(),
                    state.params.name(id)
                ));
            }
            if state.params.get(id).shape() != matrix.shape() {
                return malformed(format!(
                    "parameter {name:?} has shape {:?} in the checkpoint, expected {:?}",
                    state.params.get(id).shape(),
                    matrix.shape()
                ));
            }
        }
        if !state.optimizer.tracks(&state.params) {
            return malformed("optimizer moments do not line up with the stored parameters".into());
        }
        if state.rng_state.iter().all(|&w| w == 0) {
            return malformed("stored RNG state is all zeros (invalid xoshiro256++ state)".into());
        }
        match state.history.last() {
            Some(last) if last.observations != state.observations => {
                return malformed(format!(
                    "observation count {} disagrees with the last history entry's {}",
                    state.observations, last.observations
                ));
            }
            None if state.observations != 0 => {
                return malformed(format!(
                    "checkpoint claims {} observations but an empty history",
                    state.observations
                ));
            }
            _ => {}
        }
        system
            .restore_observations_spent(state.observations)
            .map_err(|e| {
                CheckpointError::Format(format!(
                    "cannot restore the observation stream ({}): {}",
                    e.field, e.message
                ))
            })?;
        *self.policy.params_mut() = state.params;
        self.updater.restore_optimizer(state.optimizer);
        self.rng = StdRng::from_state(state.rng_state);
        self.best = state.best;
        self.observations = state.observations;
        self.history = state.history;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recsys::data::Dataset;
    use recsys::rankers::ItemPop;
    use recsys::system::{BlackBoxSystem, SystemConfig};

    fn tiny_system() -> BlackBoxSystem {
        let histories = (0..40u32)
            .map(|u| (0..6).map(|t| (u * 3 + t * 7) % 60).collect())
            .collect();
        let data = Dataset::from_histories("tiny", histories, 60, 8);
        BlackBoxSystem::build(
            data,
            Box::new(ItemPop::new()),
            SystemConfig {
                eval_users: 24,
                reserve_attackers: 8,
                ..SystemConfig::default()
            },
        )
    }

    fn tiny_cfg(kind: ActionSpaceKind) -> PoisonRecConfig {
        PoisonRecConfig {
            policy: PolicyConfig {
                dim: 8,
                num_attackers: 4,
                trajectory_len: 6,
                init_scale: 0.1,
            },
            ppo: PpoConfig {
                lr: 0.01,
                samples_per_step: 6,
                batch: 6,
                epochs: 2,
                ..PpoConfig::default()
            },
            action_space: kind,
            seed: 5,
            threads: 1,
        }
    }

    #[test]
    fn trainer_runs_and_records_history() {
        let system = tiny_system();
        let mut trainer = PoisonRecTrainer::new(tiny_cfg(ActionSpaceKind::BcbtPopular), &system);
        let history = trainer.train(&system, 3).to_vec();
        assert_eq!(history.len(), 3);
        assert!(trainer.best_episode().is_some());
        assert!(history.iter().all(|s| s.mean_reward >= 0.0));
        assert!(history
            .iter()
            .all(|s| (0.0..=1.0).contains(&s.target_click_ratio)));
    }

    #[test]
    fn step_stats_track_phases_and_query_budget() {
        let system = tiny_system();
        let cfg = tiny_cfg(ActionSpaceKind::BcbtPopular);
        let m = cfg.ppo.samples_per_step as u64;
        let mut trainer = PoisonRecTrainer::new(cfg, &system);
        let history = trainer.train(&system, 3).to_vec();
        for (s, stats) in history.iter().enumerate() {
            assert_eq!(
                stats.observations,
                m * (s as u64 + 1),
                "each step costs exactly M observations"
            );
            for (phase, secs) in [
                ("sample", stats.sample_secs),
                ("score", stats.score_secs),
                ("update", stats.update_secs),
            ] {
                assert!(
                    secs.is_finite() && secs >= 0.0,
                    "{phase} phase duration invalid: {secs}"
                );
            }
        }
    }

    #[test]
    fn learns_to_attack_itempop() {
        // ItemPop on a tiny catalog: clicking targets repeatedly wins.
        // After a few steps the mean reward must clearly exceed the
        // first step's.
        let system = tiny_system();
        let mut trainer = PoisonRecTrainer::new(tiny_cfg(ActionSpaceKind::BcbtPopular), &system);
        let history = trainer.train(&system, 25).to_vec();
        let early: f32 = history[..5].iter().map(|s| s.mean_reward).sum::<f32>() / 5.0;
        let late: f32 = history[20..].iter().map(|s| s.mean_reward).sum::<f32>() / 5.0;
        assert!(
            late > early + 1.0,
            "no learning: early mean {early}, late mean {late}"
        );
    }

    #[test]
    fn all_action_spaces_run() {
        let system = tiny_system();
        for kind in ActionSpaceKind::ALL {
            let mut trainer = PoisonRecTrainer::new(tiny_cfg(kind), &system);
            let stats = trainer.step(&system);
            assert!(stats.mean_reward.is_finite(), "{kind}");
        }
    }

    #[test]
    fn training_is_thread_count_invariant() {
        // The scoring fan-out must not change a single bit of the run:
        // same per-step stats, same best episode.
        let run = |threads: usize| {
            let system = tiny_system();
            let cfg = PoisonRecConfig {
                threads,
                ..tiny_cfg(ActionSpaceKind::BcbtPopular)
            };
            let mut trainer = PoisonRecTrainer::new(cfg, &system);
            let history = trainer.train(&system, 4).to_vec();
            let best = trainer.best_episode().cloned().expect("ran steps");
            (history, best)
        };
        let (h1, b1) = run(1);
        let (h8, b8) = run(8);
        assert_eq!(h1.len(), h8.len());
        for (a, b) in h1.iter().zip(&h8) {
            assert_eq!(a.mean_reward, b.mean_reward);
            assert_eq!(a.max_reward, b.max_reward);
            assert_eq!(a.ppo_signal, b.ppo_signal);
        }
        assert_eq!(b1.reward, b8.reward);
        assert_eq!(b1.trajectories, b8.trajectories);
    }

    #[test]
    fn builder_rejects_degenerate_configs() {
        assert!(PoisonRecConfig::builder().seed(9).build().is_ok());

        let zero_samples = PoisonRecConfig::builder()
            .ppo(PpoConfig {
                samples_per_step: 0,
                ..PpoConfig::default()
            })
            .build()
            .expect_err("zero samples per step");
        assert_eq!(zero_samples.field, "ppo.samples_per_step");

        let zero_threads = PoisonRecConfig::builder()
            .threads(0)
            .build()
            .expect_err("zero threads");
        assert_eq!(zero_threads.field, "threads");

        let system = tiny_system(); // reserves 8 attacker accounts
        let greedy = PoisonRecConfig::builder()
            .policy(PolicyConfig {
                num_attackers: 9,
                ..PolicyConfig::default()
            })
            .build_for(&system)
            .expect_err("more attackers than reserved");
        assert_eq!(greedy.field, "policy.num_attackers");
        assert!(PoisonRecConfig::builder()
            .policy(PolicyConfig {
                num_attackers: 8,
                ..PolicyConfig::default()
            })
            .build_for(&system)
            .is_ok());
    }
}
