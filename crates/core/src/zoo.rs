//! The attack-zoo driver: one loop that runs **any**
//! [`recsys::attack::Attack`] against any [`ObservableSystem`] with
//! the same capability gate, budget boundary, sealed checkpoints,
//! fault injection, and telemetry hooks — plus the [`PoisonRecAttack`]
//! adapter that puts the RL trainer itself behind the trait. It is the
//! only attack lifecycle: the paper's experiment drivers run PoisonRec
//! through it too.
//!
//! ## Lifecycle
//!
//! ```text
//! capability gate → budget-vs-reserve gate → (resume?) →
//!   step loop (checkpoint_every → seal; fault.kill_if_due) →
//!   poison() → optional final guarded observation
//! ```
//!
//! Every observation any attack spends flows through one
//! [`GuardedSystem`] built here, so budget accounting is enforced at
//! the system boundary — not by trusting the attack — and the run's
//! [`ZooRun::usage`] ledger is authoritative.
//!
//! ## Checkpoints
//!
//! Zoo checkpoints reuse the sealed container of [`crate::checkpoint`]
//! (magic, format version, fingerprint, checksum, atomic write). The
//! fingerprint covers the attack name and tuning
//! ([`Attack::encode_config`]), the full budget, and the target
//! system's configuration and geometry — resuming a checkpoint against
//! a different cell or tuning is refused with a typed error before any
//! system, guard or defense state is restored. The body carries
//! the guard's usage ledger, the step history, the attack's own
//! [`Attack::state_bytes`] blob, and the victim's serialized defense
//! state (adaptive defenses calibrate online), so a resumed run
//! continues **bit-identically** (pinned per family, undefended and
//! defended, by `tests/conformance.rs`).

use std::path::PathBuf;
use std::sync::Arc;

use recsys::attack::{
    Attack, AttackBudget, AttackCaps, AttackError, AttackStepStats, BudgetKind, BudgetViolation,
    Codec, GuardedSystem, Reader, UsageSnapshot, Writer,
};
use recsys::system::{ConfigError, ObservableSystem};
use recsys::Trajectory;
use runtime::FaultPlan;

use crate::checkpoint::{self, TrainerState};
use crate::trainer::{PoisonRecConfig, PoisonRecTrainer, StepLogger};

/// How the zoo driver runs one attack × system × budget cell.
#[derive(Clone)]
pub struct ZooConfig {
    /// The declared spend limits, enforced by the guard.
    pub budget: AttackBudget,
    /// Scoring threads handed to [`Attack::step`].
    pub threads: usize,
    /// Step cap; `None` runs the attack's own [`Attack::planned_steps`].
    pub steps: Option<usize>,
    /// Seal a checkpoint every this many steps (0 = never).
    pub checkpoint_every: usize,
    /// Where checkpoints are written (and resumed from).
    pub checkpoint_path: Option<PathBuf>,
    /// Resume from `checkpoint_path` if the file exists.
    pub resume: bool,
    /// Scripted crash injection (`kill_if_due` after each step).
    pub fault: Option<Arc<FaultPlan>>,
    /// Spend one extra guarded observation evaluating the final poison.
    pub evaluate_final: bool,
}

impl ZooConfig {
    /// A plain run: no checkpoints, no faults, final poison evaluated.
    pub fn new(budget: AttackBudget) -> Self {
        Self {
            budget,
            threads: 1,
            steps: None,
            checkpoint_every: 0,
            checkpoint_path: None,
            resume: false,
            fault: None,
            evaluate_final: true,
        }
    }
}

/// Progress callbacks out of [`run_attack`] (telemetry stays a
/// write-only side channel: observers cannot perturb the run).
pub enum ZooEvent<'a> {
    /// An [`Attack::step`] completed.
    Step(&'a AttackStepStats),
    /// A sealed checkpoint of `bytes` bytes was written after `step`.
    Checkpoint { step: usize, bytes: u64 },
    /// The run restarted from a checkpoint at `step`.
    Resumed { step: usize },
}

/// The outcome of one zoo cell.
#[derive(Clone, Debug)]
pub struct ZooRun {
    /// [`Attack::name`] of the family that ran.
    pub attack: String,
    /// Per-step stats in step order (prefix restored on resume).
    pub history: Vec<AttackStepStats>,
    /// The crafted `N × T` poison.
    pub poison: Vec<Trajectory>,
    /// RecNum of the final poison, if `evaluate_final` was set.
    pub final_rec_num: Option<u32>,
    /// What the attack actually spent, counted at the system boundary.
    pub usage: UsageSnapshot,
}

/// Fingerprints everything that decides a zoo cell's trajectory: the
/// attack family and its tuning, the full budget, and the target
/// system's configuration and public geometry. Deliberately excludes
/// `threads` and the step cap — results are invariant to both (the cap
/// only truncates).
pub fn zoo_fingerprint(
    attack: &dyn Attack,
    budget: &AttackBudget,
    system: &dyn ObservableSystem,
) -> u64 {
    let mut w = Writer::new();
    w.put_str("zoo-cell");
    w.put_str(attack.name());
    attack.encode_config(&mut w);
    w.put_u64(u64::from(budget.fake_users));
    w.put_u64(budget.clicks_per_user as u64);
    w.put_u64(budget.observations);
    let sys_cfg = system.config();
    w.put_u64(sys_cfg.eval_users as u64);
    w.put_u64(sys_cfg.top_k as u64);
    w.put_u64(sys_cfg.n_candidates as u64);
    w.put_u64(sys_cfg.seed);
    w.put_u64(u64::from(sys_cfg.reserve_attackers));
    let info = system.public_info();
    w.put_u64(u64::from(info.num_items));
    w.put_u64(info.target_items.len() as u64);
    w.put_str(system.ranker_name());
    checkpoint::fnv1a64(&w.into_bytes())
}

/// Serialized per-cell checkpoint body (sealed by [`run_attack`]).
struct ZooState {
    attack: String,
    steps_done: u64,
    /// The *system's* lifetime observation spend at save time (restored
    /// verbatim so the next seed ordinal matches the uninterrupted run).
    system_spent: u64,
    usage: UsageSnapshot,
    history: Vec<AttackStepStats>,
    attack_state: Vec<u8>,
    /// The victim's serialized defense state (empty when undefended):
    /// an adaptive defense calibrates *online*, so resuming without it
    /// would replay the attack against a softer victim than the
    /// interrupted run faced.
    defense_state: Vec<u8>,
}

impl Codec for ZooState {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.attack);
        w.put_u64(self.steps_done);
        w.put_u64(self.system_spent);
        w.put_u64(self.usage.observations);
        w.put_u64(self.usage.feedback_events);
        w.put_u64(self.usage.peak_fake_users);
        w.put_u64(self.usage.peak_clicks_per_user);
        w.put_u64(self.history.len() as u64);
        for stats in &self.history {
            stats.encode(w);
        }
        w.put_u64(self.attack_state.len() as u64);
        for &b in &self.attack_state {
            w.put_u8(b);
        }
        w.put_u64(self.defense_state.len() as u64);
        for &b in &self.defense_state {
            w.put_u8(b);
        }
    }

    fn decode(r: &mut Reader) -> Result<Self, recsys::attack::WireError> {
        let attack = r.get_str("attack name")?;
        let steps_done = r.get_u64("steps done")?;
        let system_spent = r.get_u64("system observations")?;
        let usage = UsageSnapshot {
            observations: r.get_u64("usage observations")?,
            feedback_events: r.get_u64("usage feedback events")?,
            peak_fake_users: r.get_u64("usage peak fake users")?,
            peak_clicks_per_user: r.get_u64("usage peak clicks")?,
        };
        let steps = r.get_len(22, "history length")?;
        let mut history = Vec::with_capacity(steps);
        for _ in 0..steps {
            history.push(AttackStepStats::decode(r)?);
        }
        let len = r.get_len(1, "attack state length")?;
        let mut attack_state = Vec::with_capacity(len);
        for _ in 0..len {
            attack_state.push(r.get_u8("attack state byte")?);
        }
        let len = r.get_len(1, "defense state length")?;
        let mut defense_state = Vec::with_capacity(len);
        for _ in 0..len {
            defense_state.push(r.get_u8("defense state byte")?);
        }
        Ok(Self {
            attack,
            steps_done,
            system_spent,
            usage,
            history,
            attack_state,
            defense_state,
        })
    }
}

fn state_err(context: &str, err: impl std::fmt::Display) -> AttackError {
    AttackError::State(format!("{context}: {err}"))
}

fn save_zoo_checkpoint(
    attack: &dyn Attack,
    guard: &GuardedSystem<'_>,
    history: &[AttackStepStats],
    fingerprint: u64,
    path: &std::path::Path,
) -> Result<u64, AttackError> {
    let state = ZooState {
        attack: attack.name().to_string(),
        steps_done: attack.steps_done() as u64,
        system_spent: guard.observations_spent(),
        usage: guard.usage(),
        history: history.to_vec(),
        attack_state: attack.state_bytes(),
        defense_state: guard.defense_state(),
    };
    let sealed = checkpoint::seal(fingerprint, &state.to_bytes());
    checkpoint::atomic_write(path, &sealed).map_err(|e| state_err("checkpoint write failed", e))?;
    telemetry::metrics::counter("attack_checkpoints_total").inc();
    Ok(sealed.len() as u64)
}

/// Runs one attack to completion under the zoo lifecycle (module
/// docs). All recoverable failures — capability mismatches, budget
/// overspends, corrupt checkpoints — come back as typed
/// [`AttackError`]s.
pub fn run_attack(
    attack: &mut dyn Attack,
    system: &dyn ObservableSystem,
    cfg: &ZooConfig,
    on_event: &mut dyn FnMut(ZooEvent<'_>),
) -> Result<ZooRun, AttackError> {
    // Capability gate: refuse impossible cells before spending anything.
    let caps = attack.caps();
    if caps.gradient_required && !system.caps().gradients {
        return Err(AttackError::Capability {
            attack: attack.name().to_string(),
            needs: "model gradients, which this black-box system does not expose",
        });
    }
    if cfg.threads == 0 {
        return Err(AttackError::Config(ConfigError {
            field: "threads",
            message: "at least one scoring thread is required".into(),
        }));
    }
    // Budget sanity against the victim: a budget the system's reserved
    // attacker rows cannot host would otherwise panic inside the
    // ranker's embedding tables mid-run.
    let reserve = system.config().reserve_attackers;
    if cfg.budget.fake_users > reserve {
        return Err(AttackError::Config(ConfigError {
            field: "fake_users",
            message: format!(
                "budget allows {} fake accounts but the system reserves only {reserve}",
                cfg.budget.fake_users
            ),
        }));
    }

    let fingerprint = zoo_fingerprint(attack, &cfg.budget, system);
    let guard = GuardedSystem::new(system, cfg.budget);
    let mut history: Vec<AttackStepStats> = Vec::new();

    if cfg.resume {
        let path = cfg.checkpoint_path.as_ref().ok_or_else(|| {
            AttackError::State("resume requested without a checkpoint path".into())
        })?;
        if path.exists() {
            let bytes = std::fs::read(path).map_err(|e| state_err("checkpoint read failed", e))?;
            let (saved, body) =
                checkpoint::unseal(&bytes).map_err(|e| state_err("checkpoint rejected", e))?;
            if saved != fingerprint {
                return Err(AttackError::State(format!(
                    "checkpoint fingerprint {saved:#018x} does not match this cell \
                     ({fingerprint:#018x}); it was written for a different attack, tuning, \
                     budget, or system"
                )));
            }
            let state =
                ZooState::from_bytes(body).map_err(|e| state_err("checkpoint rejected", e))?;
            if state.attack != attack.name() {
                return Err(AttackError::State(format!(
                    "checkpoint belongs to attack {:?}, not {:?}",
                    state.attack,
                    attack.name()
                )));
            }
            system.restore_observations_spent(state.system_spent)?;
            system.restore_defense_state(&state.defense_state)?;
            guard.restore_usage(state.usage);
            attack.restore_state(&state.attack_state, &guard)?;
            if attack.steps_done() as u64 != state.steps_done {
                return Err(AttackError::State(format!(
                    "attack restored to step {} but the checkpoint was sealed at step {}",
                    attack.steps_done(),
                    state.steps_done
                )));
            }
            history = state.history;
            on_event(ZooEvent::Resumed {
                step: attack.steps_done(),
            });
        }
    }

    // Live spend attribution: every step's guard-ledger delta is
    // counted against this attack's label, so `/metrics` (and obs_top)
    // can show which zoo cell is spending the budget *while it runs*.
    // Pure observation of usage deltas — never touches the guard.
    let spend = telemetry::stream::counter_family("attack_guard_spend", &["attack", "resource"]);
    let attack_label = attack.name().to_string();
    let mut spent = guard.usage();

    let attribute_spend = |spent: &mut UsageSnapshot, now: UsageSnapshot| {
        let obs = now.observations.saturating_sub(spent.observations);
        if obs > 0 {
            spend.add(&[attack_label.as_str(), "observations"], obs);
        }
        let events = now.feedback_events.saturating_sub(spent.feedback_events);
        if events > 0 {
            spend.add(&[attack_label.as_str(), "feedback_events"], events);
        }
        *spent = now;
    };

    let total = cfg.steps.unwrap_or_else(|| attack.planned_steps());
    while attack.steps_done() < total {
        let stats = attack.step(&guard, cfg.threads)?;
        attribute_spend(&mut spent, guard.usage());
        history.push(stats);
        on_event(ZooEvent::Step(&stats));
        let done = attack.steps_done();
        if cfg.checkpoint_every > 0 && done.is_multiple_of(cfg.checkpoint_every) {
            if let Some(path) = &cfg.checkpoint_path {
                let bytes = save_zoo_checkpoint(attack, &guard, &history, fingerprint, path)?;
                on_event(ZooEvent::Checkpoint { step: done, bytes });
            }
        }
        if let Some(fault) = &cfg.fault {
            fault.kill_if_due(done as u64);
        }
    }

    let poison = attack.poison()?;
    let final_rec_num = if cfg.evaluate_final {
        let rec_num = guard.try_observe(&poison)?.rec_num;
        attribute_spend(&mut spent, guard.usage());
        Some(rec_num)
    } else {
        None
    };
    Ok(ZooRun {
        attack: attack.name().to_string(),
        history,
        poison,
        final_rec_num,
        usage: guard.usage(),
    })
}

/// The paper's own attack behind the zoo trait: Algorithm 1 as an
/// [`Attack`], with the policy's `N`/`T` taken from the cell's
/// [`AttackBudget`] at first step (so one configured adapter serves
/// the whole budget grid) and the trainer built lazily against the
/// guard's public info.
pub struct PoisonRecAttack {
    cfg: PoisonRecConfig,
    steps: usize,
    logger: Option<StepLogger>,
    trainer: Option<PoisonRecTrainer>,
}

impl PoisonRecAttack {
    /// `cfg.policy.num_attackers` / `trajectory_len` are overridden by
    /// the budget when the attack first runs; everything else (action
    /// space, PPO, dim, seed) is taken as given.
    pub fn new(cfg: PoisonRecConfig, steps: usize) -> Self {
        Self {
            cfg,
            steps,
            logger: None,
            trainer: None,
        }
    }

    /// Streams every training step to `logger` (attached to the
    /// trainer when it is built or restored).
    pub fn with_logger(mut self, logger: StepLogger) -> Self {
        self.logger = Some(logger);
        self
    }

    /// The trained agent (history, best episode, policy); `None` before
    /// the first step or restore.
    pub fn into_trainer(self) -> Option<PoisonRecTrainer> {
        self.trainer
    }

    fn trainer_cfg(&self, guard: &GuardedSystem<'_>) -> Result<PoisonRecConfig, AttackError> {
        let budget = guard.budget();
        let mut policy = self.cfg.policy;
        policy.num_attackers = budget.fake_users as usize;
        policy.trajectory_len = budget.clicks_per_user;
        PoisonRecConfig::builder()
            .policy(policy)
            .ppo(self.cfg.ppo)
            .action_space(self.cfg.action_space)
            .seed(self.cfg.seed)
            .threads(self.cfg.threads.max(1))
            .build_for(guard)
            .map_err(AttackError::from)
    }

    fn ensure_trainer(
        &mut self,
        guard: &GuardedSystem<'_>,
    ) -> Result<&mut PoisonRecTrainer, AttackError> {
        if self.trainer.is_none() {
            let cfg = self.trainer_cfg(guard)?;
            let mut trainer = PoisonRecTrainer::new(cfg, guard);
            if let Some(logger) = &self.logger {
                trainer.attach_logger(logger.clone());
            }
            self.trainer = Some(trainer);
        }
        Ok(self.trainer.as_mut().expect("just built"))
    }
}

impl Attack for PoisonRecAttack {
    fn name(&self) -> &'static str {
        "PoisonRec"
    }

    /// The whole [`PoisonRecConfig`] but `threads` (training is
    /// thread-count invariant) and the policy's `N`/`T`, which the
    /// budget sets.
    fn encode_config(&self, w: &mut Writer) {
        let cfg = &self.cfg;
        w.put_u64(cfg.policy.dim as u64);
        w.put_f32(cfg.policy.init_scale);
        w.put_f32(cfg.ppo.lr);
        w.put_f32(cfg.ppo.clip_eps);
        w.put_u64(cfg.ppo.epochs as u64);
        w.put_u64(cfg.ppo.batch as u64);
        w.put_u64(cfg.ppo.samples_per_step as u64);
        w.put_u8(cfg.ppo.normalize_rewards as u8);
        w.put_u8(cfg.ppo.use_clip as u8);
        w.put_f32(cfg.ppo.max_grad_norm);
        w.put_str(cfg.action_space.name());
        w.put_u64(cfg.seed);
    }

    fn caps(&self) -> AttackCaps {
        AttackCaps {
            queries_system: true,
            ..AttackCaps::default()
        }
    }

    fn planned_steps(&self) -> usize {
        self.steps
    }

    fn steps_done(&self) -> usize {
        self.trainer.as_ref().map_or(0, |t| t.history().len())
    }

    fn step(
        &mut self,
        system: &GuardedSystem<'_>,
        threads: usize,
    ) -> Result<AttackStepStats, AttackError> {
        // Pre-check the step's observation cost so an exhausted budget
        // is a typed refusal here, not a panic at the guard's hard
        // boundary once the trainer is mid-step.
        let m = self.cfg.ppo.samples_per_step as u64;
        if system.observations_left() < m {
            return Err(AttackError::Budget(BudgetViolation {
                kind: BudgetKind::Observations,
                requested: system.usage().observations + m,
                declared: system.budget().observations,
            }));
        }
        let trainer = self.ensure_trainer(system)?;
        trainer.set_threads(threads);
        let stats = trainer.step(system);
        let best_reward = trainer.best_episode().map(|e| e.reward);
        Ok(AttackStepStats {
            step: stats.step,
            reward: Some(stats.mean_reward),
            best_reward,
            observations: system.usage().observations,
        })
    }

    fn poison(&self) -> Result<Vec<Trajectory>, AttackError> {
        self.trainer
            .as_ref()
            .and_then(|t| t.best_episode())
            .map(|e| e.trajectories.clone())
            .ok_or_else(|| {
                AttackError::State("PoisonRec has not trained yet; run at least one step".into())
            })
    }

    fn state_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match &self.trainer {
            None => w.put_u8(0),
            Some(trainer) => {
                w.put_u8(1);
                trainer.export_state().encode(&mut w);
            }
        }
        w.into_bytes()
    }

    fn restore_state(
        &mut self,
        bytes: &[u8],
        system: &GuardedSystem<'_>,
    ) -> Result<(), AttackError> {
        let mut r = Reader::new(bytes);
        match r.get_u8("trainer tag")? {
            0 => {
                self.trainer = None;
            }
            1 => {
                let state = TrainerState::decode(&mut r)?;
                self.trainer = None;
                let trainer = self.ensure_trainer(system)?;
                trainer
                    .restore_state(state, system)
                    .map_err(|e| state_err("trainer state rejected", e))?;
            }
            tag => {
                return Err(AttackError::State(format!(
                    "unknown PoisonRec state tag {tag}"
                )))
            }
        }
        r.expect_eof().map_err(AttackError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionSpaceKind;
    use crate::policy::PolicyConfig;
    use crate::ppo::PpoConfig;
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

    fn tiny_attack(steps: usize) -> PoisonRecAttack {
        PoisonRecAttack::new(
            PoisonRecConfig {
                policy: PolicyConfig {
                    dim: 8,
                    init_scale: 0.1,
                    ..PolicyConfig::default()
                },
                ppo: PpoConfig {
                    lr: 0.01,
                    samples_per_step: 4,
                    batch: 4,
                    epochs: 2,
                    ..PpoConfig::default()
                },
                action_space: ActionSpaceKind::BcbtPopular,
                seed: 5,
                threads: 1,
            },
            steps,
        )
    }

    fn budget(q: u64) -> AttackBudget {
        AttackBudget {
            fake_users: 4,
            clicks_per_user: 6,
            observations: q,
        }
    }

    #[test]
    fn poisonrec_runs_behind_the_trait() {
        let system = tiny_system();
        let mut attack = tiny_attack(2);
        let run = run_attack(
            &mut attack,
            &system,
            &ZooConfig::new(budget(9)),
            &mut |_| {},
        )
        .expect("runs");
        assert_eq!(run.attack, "PoisonRec");
        assert_eq!(run.history.len(), 2);
        assert_eq!(run.poison.len(), 4);
        assert!(run.poison.iter().all(|t| t.len() == 6));
        // 2 steps x 4 episodes + the final evaluation.
        assert_eq!(run.usage.observations, 9);
        assert_eq!(run.final_rec_num, Some(run.final_rec_num.unwrap()));
        assert!(run.history[0].reward.is_some());
    }

    #[test]
    fn exhausted_observation_budget_is_a_typed_refusal() {
        let system = tiny_system();
        let mut attack = tiny_attack(3);
        // Two full steps fit; the third must be refused, typed.
        let err = run_attack(
            &mut attack,
            &system,
            &ZooConfig {
                evaluate_final: false,
                ..ZooConfig::new(budget(8))
            },
            &mut |_| {},
        )
        .expect_err("third step overspends");
        match err {
            AttackError::Budget(v) => assert_eq!(v.kind, BudgetKind::Observations),
            other => panic!("expected budget refusal, got {other}"),
        }
        assert_eq!(attack.steps_done(), 2, "refusal came before the step ran");
    }

    #[test]
    fn oversized_budget_is_refused_before_any_query() {
        let system = tiny_system(); // reserves 8
        let mut attack = tiny_attack(1);
        let err = run_attack(
            &mut attack,
            &system,
            &ZooConfig::new(AttackBudget {
                fake_users: 9,
                clicks_per_user: 6,
                observations: 100,
            }),
            &mut |_| {},
        )
        .expect_err("budget exceeds reserve");
        match err {
            AttackError::Config(e) => assert_eq!(e.field, "fake_users"),
            other => panic!("expected config refusal, got {other}"),
        }
        assert_eq!(system.observations_spent(), 0);
    }

    struct NeedsGradients;

    impl Attack for NeedsGradients {
        fn name(&self) -> &'static str {
            "GradientProbe"
        }
        fn encode_config(&self, _w: &mut Writer) {}
        fn caps(&self) -> AttackCaps {
            AttackCaps {
                gradient_required: true,
                ..AttackCaps::default()
            }
        }
        fn planned_steps(&self) -> usize {
            1
        }
        fn steps_done(&self) -> usize {
            0
        }
        fn step(
            &mut self,
            _system: &GuardedSystem<'_>,
            _threads: usize,
        ) -> Result<AttackStepStats, AttackError> {
            unreachable!("the capability gate must fire first")
        }
        fn poison(&self) -> Result<Vec<Trajectory>, AttackError> {
            Ok(Vec::new())
        }
        fn state_bytes(&self) -> Vec<u8> {
            Vec::new()
        }
        fn restore_state(
            &mut self,
            _bytes: &[u8],
            _system: &GuardedSystem<'_>,
        ) -> Result<(), AttackError> {
            Ok(())
        }
    }

    #[test]
    fn gradient_required_against_black_box_is_a_typed_capability_error() {
        let system = tiny_system();
        let mut attack = NeedsGradients;
        let err = run_attack(
            &mut attack,
            &system,
            &ZooConfig::new(budget(4)),
            &mut |_| {},
        )
        .expect_err("black boxes expose no gradients");
        match err {
            AttackError::Capability { attack, .. } => assert_eq!(attack, "GradientProbe"),
            other => panic!("expected capability refusal, got {other}"),
        }
    }

    #[test]
    fn checkpoint_resume_continues_bit_identically() {
        let dir = std::env::temp_dir().join(format!("zoo-resume-{}", std::process::id()));
        let path = dir.join("cell.ckpt");
        let _ = std::fs::remove_file(&path);

        // Uninterrupted reference.
        let system = tiny_system();
        let reference = run_attack(
            &mut tiny_attack(4),
            &system,
            &ZooConfig::new(budget(17)),
            &mut |_| {},
        )
        .expect("reference run");

        // Partial run: stop after 2 steps, checkpointing each.
        let partial_system = tiny_system();
        let mut events = 0usize;
        run_attack(
            &mut tiny_attack(4),
            &partial_system,
            &ZooConfig {
                steps: Some(2),
                checkpoint_every: 1,
                checkpoint_path: Some(path.clone()),
                evaluate_final: false,
                ..ZooConfig::new(budget(17))
            },
            &mut |e| {
                if matches!(e, ZooEvent::Checkpoint { .. }) {
                    events += 1;
                }
            },
        )
        .expect("partial run");
        assert_eq!(events, 2, "one sealed checkpoint per step");

        // Resume on a fresh system + fresh attack instance.
        let resumed_system = tiny_system();
        let mut resumed_from = None;
        let resumed = run_attack(
            &mut tiny_attack(4),
            &resumed_system,
            &ZooConfig {
                checkpoint_every: 1,
                checkpoint_path: Some(path.clone()),
                resume: true,
                ..ZooConfig::new(budget(17))
            },
            &mut |e| {
                if let ZooEvent::Resumed { step } = e {
                    resumed_from = Some(step);
                }
            },
        )
        .expect("resumed run");
        assert_eq!(resumed_from, Some(2));
        assert_eq!(reference.history, resumed.history);
        assert_eq!(reference.poison, resumed.poison);
        assert_eq!(reference.final_rec_num, resumed.final_rec_num);
        assert_eq!(reference.usage, resumed.usage);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_for_a_different_cell_is_refused() {
        let dir = std::env::temp_dir().join(format!("zoo-mismatch-{}", std::process::id()));
        let path = dir.join("cell.ckpt");
        let _ = std::fs::remove_file(&path);

        let system = tiny_system();
        run_attack(
            &mut tiny_attack(1),
            &system,
            &ZooConfig {
                steps: Some(1),
                checkpoint_every: 1,
                checkpoint_path: Some(path.clone()),
                evaluate_final: false,
                ..ZooConfig::new(budget(17))
            },
            &mut |_| {},
        )
        .expect("seed checkpoint");

        // Same attack, different budget: the fingerprint must differ.
        let fresh = tiny_system();
        let err = run_attack(
            &mut tiny_attack(1),
            &fresh,
            &ZooConfig {
                checkpoint_path: Some(path.clone()),
                resume: true,
                ..ZooConfig::new(budget(18))
            },
            &mut |_| {},
        )
        .expect_err("mismatched cell");
        match err {
            AttackError::State(msg) => assert!(msg.contains("fingerprint"), "{msg}"),
            other => panic!("expected state refusal, got {other}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
