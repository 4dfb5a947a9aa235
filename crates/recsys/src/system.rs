//! The black-box recommender system as the attacker sees it.
//!
//! [`BlackBoxSystem`] wraps a dataset, a fitted ranker, and the
//! evaluation protocol, exposing exactly the interface the paper's
//! threat model allows:
//!
//! * [`BlackBoxSystem::inject_and_observe`] — hand over fake
//!   trajectories, get back the resulting *RecNum*. Internally this is
//!   the paper's `DataPoisoning` routine: the clean ranker is snapshot-
//!   cloned, warm-updated with the poisoned log, and polled for
//!   recommendations. Nothing about the ranker leaks out.
//! * [`BlackBoxSystem::observe_batch`] — the same observation for a
//!   whole batch of candidate poisons at once, fanned out over a
//!   worker pool. Seeds are assigned per slot *before* dispatch, so
//!   the results are identical for any thread count.
//! * [`BlackBoxSystem::public_info`] — item count, target ids, and item
//!   popularity (the paper allows crawling "basic item information like
//!   item popularity").
//!
//! ## Thread safety
//!
//! `BlackBoxSystem` is [`Sync`]: the frozen clean ranker is never
//! mutated after [`BlackBoxSystem::build`] (observations fine-tune a
//! clone), the dataset and protocol are immutable, and the only
//! mutable state — the observation counter that derives per-query
//! seeds — is an [`AtomicU64`]. Concurrent observers therefore draw
//! disjoint seeds and share everything else read-only, which is what
//! lets [`BlackBoxSystem::observe_batch`] score a training step's
//! episodes in parallel.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::data::{Dataset, ItemId, LogView, Trajectory, UserId};
use crate::eval::EvalProtocol;
use crate::rankers::{common::child_seed, Ranker};
use crate::snapshot::RankerSnapshot;

/// The observation interface the attack consumes, abstracted over
/// *where the system lives*: [`BlackBoxSystem`] implements it
/// in-process, `crate::remote::RemoteSystem` implements it over a
/// socket against a served instance. `PoisonRecTrainer` (and the
/// checkpoint fingerprint) depend only on this trait, so the same
/// attack drives both bit-identically — the served system draws from
/// the same `seed_for_ordinal` stream as the in-process one.
///
/// Dyn-compatible on purpose: trainers hold `&dyn ObservableSystem`.
pub trait ObservableSystem: Send + Sync {
    /// The harness configuration (experimenter-side knowledge; the
    /// trainer reads only `reserve_attackers` for validation).
    fn config(&self) -> &SystemConfig;

    /// Crawlable item metadata (threat-model §III-A2).
    fn public_info(&self) -> PublicInfo;

    /// Name of the deployed ranker (fingerprinted into checkpoints so
    /// a resume against a different testbed is refused).
    fn ranker_name(&self) -> &str;

    /// Observations consumed from the system's seed stream so far.
    fn observations_spent(&self) -> u64;

    /// Fast-forwards the observation seed stream for checkpoint
    /// resume; rewinding is refused. See
    /// [`BlackBoxSystem::restore_observations_spent`].
    fn restore_observations_spent(&self, spent: u64) -> Result<(), ConfigError>;

    /// Observes every poison in `batch`, consuming one seed-stream
    /// ordinal per slot *in slot order* — slot `i` behaves exactly
    /// like the `i`-th of sequential single observations, whatever
    /// `threads` is.
    fn observe_batch(&self, batch: &[&[Trajectory]], threads: usize) -> Vec<Observation>;

    /// What this system can offer attacks beyond black-box queries.
    /// The default is the paper's threat model: nothing — no gradients.
    /// `crate::attack` matches these against each attack's declared
    /// [`crate::attack::AttackCaps`] before a single query is spent.
    fn caps(&self) -> crate::attack::SystemCaps {
        crate::attack::SystemCaps::default()
    }

    /// Serialized state of the victim's online defense, if it has one
    /// (empty for undefended systems). Captured into sealed
    /// checkpoints so a resumed run's defense continues from the exact
    /// calibration the interrupted run had reached.
    fn defense_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state captured by
    /// [`ObservableSystem::defense_state`]. An undefended system
    /// accepts only the empty state it emits.
    fn restore_defense_state(&self, state: &[u8]) -> Result<(), ConfigError> {
        if state.is_empty() {
            Ok(())
        } else {
            Err(ConfigError {
                field: "defense_state",
                message: "this system has no defense layer to restore into".into(),
            })
        }
    }
}

/// A configuration value failed validation at construction time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending field, e.g. `"top_k"`.
    pub field: &'static str,
    /// What about it is wrong.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid config field `{}`: {}", self.field, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Harness configuration.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Users polled when measuring RecNum.
    pub eval_users: usize,
    /// Recommendation list length `k`.
    pub top_k: usize,
    /// Random original items per candidate set (92 in the paper).
    pub n_candidates: usize,
    /// Master seed for fitting, fine-tuning, and evaluation.
    pub seed: u64,
    /// Attacker accounts the embedding tables reserve room for.
    pub reserve_attackers: u32,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            eval_users: 256,
            top_k: 10,
            n_candidates: 92,
            seed: 17,
            reserve_attackers: 64,
        }
    }
}

impl SystemConfig {
    /// A validating builder seeded with the paper defaults.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder {
            cfg: Self::default(),
        }
    }
}

/// Builds a [`SystemConfig`], rejecting values that would otherwise
/// surface as asserts or empty evaluations mid-experiment.
#[derive(Clone, Debug)]
pub struct SystemConfigBuilder {
    cfg: SystemConfig,
}

impl SystemConfigBuilder {
    pub fn eval_users(mut self, eval_users: usize) -> Self {
        self.cfg.eval_users = eval_users;
        self
    }

    pub fn top_k(mut self, top_k: usize) -> Self {
        self.cfg.top_k = top_k;
        self
    }

    pub fn n_candidates(mut self, n_candidates: usize) -> Self {
        self.cfg.n_candidates = n_candidates;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    pub fn reserve_attackers(mut self, reserve_attackers: u32) -> Self {
        self.cfg.reserve_attackers = reserve_attackers;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<SystemConfig, ConfigError> {
        let cfg = self.cfg;
        if cfg.eval_users == 0 {
            return Err(ConfigError {
                field: "eval_users",
                message: "RecNum over zero users is always zero".into(),
            });
        }
        if cfg.top_k == 0 {
            return Err(ConfigError {
                field: "top_k",
                message: "empty recommendation lists make every attack score zero".into(),
            });
        }
        if cfg.n_candidates == 0 {
            return Err(ConfigError {
                field: "n_candidates",
                message: "candidate sets must contain at least one original item".into(),
            });
        }
        if cfg.reserve_attackers == 0 {
            return Err(ConfigError {
                field: "reserve_attackers",
                message: "no attacker accounts reserved; every injection would be rejected".into(),
            });
        }
        Ok(cfg)
    }
}

/// What the paper allows an attacker to crawl about the system.
#[derive(Clone, Debug)]
pub struct PublicInfo {
    /// Number of original items `|I|`.
    pub num_items: u32,
    /// The target item ids the attacker wants promoted.
    pub target_items: Vec<ItemId>,
    /// Per-item popularity (sales volume), length `|I| + |I_t|`.
    pub popularity: Vec<u32>,
}

/// The outcome of one black-box observation: the paper's RecNum
/// reward, the retraining seed that produced it, and (when requested
/// through [`BlackBoxSystem::observe_recommendations`]) the full
/// per-user recommendation lists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Observation {
    /// `RecNum = Σ_u |L_u ∩ I_t|` after injecting the poison.
    pub rec_num: u32,
    /// The fine-tuning seed used for this observation. Replaying the
    /// same poison through [`BlackBoxSystem::observe_seeded`] with this
    /// seed reproduces the observation exactly.
    pub seed: u64,
    /// Per-user recommendation lists, present only on the analysis
    /// paths that ask for them (never visible to the attack agent).
    pub recommendations: Option<Vec<(UserId, Vec<ItemId>)>>,
}

/// A dataset + fitted clean ranker + evaluation protocol, exposing only
/// black-box poisoning access.
pub struct BlackBoxSystem {
    base: Dataset,
    clean: Box<dyn Ranker>,
    protocol: EvalProtocol,
    cfg: SystemConfig,
    /// Monotone counter so successive observations fine-tune with
    /// fresh (but reproducible) randomness. Atomic so concurrent
    /// observers draw disjoint seed streams; see the module docs for
    /// the `Sync` contract.
    observation: AtomicU64,
}

impl BlackBoxSystem {
    /// Fits `ranker` on the clean dataset and freezes the snapshot.
    pub fn build(base: Dataset, mut ranker: Box<dyn Ranker>, cfg: SystemConfig) -> Self {
        let view = LogView::clean(&base);
        ranker.fit(&view, child_seed(cfg.seed, 1));
        let protocol = EvalProtocol::sample(
            &base,
            cfg.eval_users,
            cfg.top_k,
            cfg.n_candidates,
            child_seed(cfg.seed, 2),
        );
        Self {
            base,
            clean: ranker,
            protocol,
            cfg,
            observation: AtomicU64::new(0),
        }
    }

    pub fn base(&self) -> &Dataset {
        &self.base
    }

    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    pub fn protocol(&self) -> &EvalProtocol {
        &self.protocol
    }

    /// Name of the deployed ranker (the experimenter knows it; the
    /// attack agent never reads it).
    pub fn ranker_name(&self) -> &'static str {
        self.clean.name()
    }

    /// Crawlable item metadata (threat-model §III-A2).
    pub fn public_info(&self) -> PublicInfo {
        PublicInfo {
            num_items: self.base.num_items(),
            target_items: self.base.target_items().collect(),
            popularity: self.base.popularity(),
        }
    }

    /// RecNum of the *clean* system (usually 0: targets are new items).
    pub fn clean_rec_num(&self) -> u32 {
        self.protocol.rec_num(&*self.clean, &self.base)
    }

    /// Upper bound on RecNum under this protocol.
    pub fn max_rec_num(&self) -> u32 {
        self.protocol.max_rec_num(&self.base)
    }

    /// The seed for the `ordinal`-th observation of this system's
    /// lifetime. Centralizing this mapping is what makes sequential
    /// and batched observation orders bit-identical.
    fn seed_for_ordinal(&self, ordinal: u64) -> u64 {
        child_seed(self.cfg.seed, 1000 + ordinal)
    }

    /// Observations consumed from this system's seed stream so far.
    pub fn observations_spent(&self) -> u64 {
        self.observation.load(Ordering::Relaxed)
    }

    /// Fast-forwards the observation seed stream to `spent`, as if that
    /// many [`BlackBoxSystem::observe`] calls had already happened.
    /// Checkpoint resume uses this so a restored trainer's next query
    /// draws exactly the seed it would have drawn in the uninterrupted
    /// run. Rewinding is refused — reusing seeds would silently break
    /// the "fresh randomness per observation" contract.
    pub fn restore_observations_spent(&self, spent: u64) -> Result<(), ConfigError> {
        let current = self.observation.load(Ordering::Relaxed);
        if spent < current {
            return Err(ConfigError {
                field: "observations_spent",
                message: format!(
                    "cannot rewind the observation stream from {current} to {spent}; \
                     resume against a freshly built system"
                ),
            });
        }
        self.observation.store(spent, Ordering::Relaxed);
        Ok(())
    }

    fn check_budget(&self, poison: &[Trajectory]) {
        assert!(
            poison.len() as u32 <= self.cfg.reserve_attackers,
            "{} attackers injected but only {} reserved",
            poison.len(),
            self.cfg.reserve_attackers
        );
    }

    /// The single seeded observation core every public entry point
    /// reduces to: snapshot the clean ranker, warm-update it with the
    /// poisoned log, and read the target set's exposure.
    ///
    /// Telemetry: each call bumps the global `system_observations_total`
    /// counter (the attack's query budget — every RL reward costs
    /// exactly one of these), and its `retrain` and `observe` spans
    /// record into `system_retrain_seconds` /
    /// `system_observe_seconds`. Pure metrics side-channel: no RNG is
    /// touched, so observations stay bit-identical with or without a
    /// metrics reader.
    fn observe_core(&self, poison: &[Trajectory], seed: u64, with_lists: bool) -> Observation {
        let _observe_span = telemetry::span!("system", "observe");
        telemetry::metrics::counter("system_observations_total").inc();
        // Observation generation numbers are never published, so tag 0.
        let snapshot = self.fine_tuned_snapshot(poison, seed, 0);
        let rec_num = snapshot.rec_num(&self.protocol, &self.base);
        let recommendations =
            with_lists.then(|| snapshot.recommendations(&self.protocol, &self.base));
        Observation {
            rec_num,
            seed,
            recommendations,
        }
    }

    /// The retrain everything reduces to: clone the frozen clean
    /// ranker, warm-update it with the poisoned log, and freeze the
    /// result as a [`RankerSnapshot`]. Both the observation path above
    /// and the serving layer's `POST /retrain` build their models
    /// here, which is what makes an attack over the wire bit-identical
    /// to the in-process run.
    fn fine_tuned_snapshot(
        &self,
        poison: &[Trajectory],
        seed: u64,
        generation: u64,
    ) -> RankerSnapshot {
        let mut ranker = self.clean.boxed_clone();
        let view = LogView::new(&self.base, poison);
        let retrain_span = telemetry::span!("system", "retrain");
        ranker.fine_tune(&view, seed);
        drop(retrain_span);
        RankerSnapshot::new(ranker, generation, seed, self.base.num_users())
    }

    /// The clean system as a generation-0 [`RankerSnapshot`] — what a
    /// freshly started server publishes before any `POST /retrain`.
    /// Does not consume the observation seed stream.
    pub fn clean_snapshot(&self) -> RankerSnapshot {
        RankerSnapshot::new(self.clean.boxed_clone(), 0, 0, self.base.num_users())
    }

    /// One retrain off the system's own seed stream, returned as a
    /// publishable snapshot instead of a scalar observation: consumes
    /// exactly one seed ordinal (like [`BlackBoxSystem::observe`]) and
    /// tags the snapshot with generation `ordinal + 1`, so generation
    /// `g` is always the model produced by the `g`-th observation of
    /// the system's lifetime. The serving layer builds snapshots here
    /// and swaps each one into its snapshot cell; readers of the
    /// previous generation are never blocked.
    pub fn retrain_snapshot(&self, poison: &[Trajectory]) -> RankerSnapshot {
        self.check_budget(poison);
        let ordinal = self.observation.fetch_add(1, Ordering::Relaxed);
        let seed = self.seed_for_ordinal(ordinal);
        self.fine_tuned_snapshot(poison, seed, ordinal + 1)
    }

    /// One observation under the system's own seed stream. Each call
    /// consumes one seed, so repeated observations of the same poison
    /// differ only by retraining noise — exactly the stochastic reward
    /// the RL agent must cope with.
    pub fn observe(&self, poison: &[Trajectory]) -> Observation {
        self.check_budget(poison);
        let ordinal = self.observation.fetch_add(1, Ordering::Relaxed);
        self.observe_core(poison, self.seed_for_ordinal(ordinal), false)
    }

    /// Deterministic observation with an explicit fine-tuning seed,
    /// used by tests and variance studies. Does not consume the
    /// system's seed stream.
    pub fn observe_seeded(&self, poison: &[Trajectory], seed: u64) -> Observation {
        self.observe_core(poison, seed, false)
    }

    /// [`BlackBoxSystem::observe_seeded`] plus the full per-user
    /// recommendation lists (an analysis-side privilege the attack
    /// agent never gets).
    pub fn observe_recommendations(&self, poison: &[Trajectory], seed: u64) -> Observation {
        self.observe_core(poison, seed, true)
    }

    /// Observes every poison in `batch`, fanning the independent
    /// retrains out over the [`runtime::global`] worker pool with at
    /// most `threads` in flight.
    ///
    /// Each slot's seed is drawn from the system's observation counter
    /// *before* any work is dispatched: slot `i` of this call behaves
    /// exactly like the `i`-th in a run of sequential
    /// [`BlackBoxSystem::observe`] calls, and the returned vector is
    /// bit-identical for every `threads` value (including 1).
    pub fn observe_batch<P>(&self, batch: &[P], threads: usize) -> Vec<Observation>
    where
        P: AsRef<[Trajectory]> + Sync,
    {
        self.observe_batch_on(runtime::global(), batch, threads)
    }

    /// [`BlackBoxSystem::observe_batch`] on an explicit pool (tests use
    /// this to prove thread-count independence).
    pub fn observe_batch_on<P>(
        &self,
        pool: &runtime::WorkerPool,
        batch: &[P],
        threads: usize,
    ) -> Vec<Observation>
    where
        P: AsRef<[Trajectory]> + Sync,
    {
        for poison in batch {
            self.check_budget(poison.as_ref());
        }
        let base = self
            .observation
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        let jobs: Vec<Box<dyn FnOnce() -> Observation + Send + '_>> = batch
            .iter()
            .enumerate()
            .map(|(i, poison)| {
                let seed = self.seed_for_ordinal(base + i as u64);
                Box::new(move || self.observe_core(poison.as_ref(), seed, false))
                    as Box<dyn FnOnce() -> Observation + Send + '_>
            })
            .collect();
        pool.run(threads, jobs)
    }

    /// The paper's `DataPoisoning(D^p)` + RecNum observation. Thin
    /// wrapper over [`BlackBoxSystem::observe`] for callers that only
    /// want the scalar reward.
    pub fn inject_and_observe(&self, poison: &[Trajectory]) -> u32 {
        self.observe(poison).rec_num
    }

    /// Deterministic variant of [`BlackBoxSystem::inject_and_observe`];
    /// thin wrapper over [`BlackBoxSystem::observe_seeded`].
    pub fn inject_and_observe_seeded(&self, poison: &[Trajectory], seed: u64) -> u32 {
        self.observe_seeded(poison, seed).rec_num
    }
}

impl ObservableSystem for BlackBoxSystem {
    fn config(&self) -> &SystemConfig {
        self.config()
    }

    fn public_info(&self) -> PublicInfo {
        self.public_info()
    }

    fn ranker_name(&self) -> &str {
        self.ranker_name()
    }

    fn observations_spent(&self) -> u64 {
        self.observations_spent()
    }

    fn restore_observations_spent(&self, spent: u64) -> Result<(), ConfigError> {
        self.restore_observations_spent(spent)
    }

    fn observe_batch(&self, batch: &[&[Trajectory]], threads: usize) -> Vec<Observation> {
        // Delegates to the inherent generic (which fans out over the
        // worker pool); inherent methods win resolution on the
        // concrete type, so this is not a recursive call.
        BlackBoxSystem::observe_batch(self, batch, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rankers::ItemPop;

    fn toy() -> Dataset {
        let histories = (0..30u32)
            .map(|u| (0..6).map(|t| (u + t * 3) % 40).collect())
            .collect();
        Dataset::from_histories("toy", histories, 40, 8)
    }

    fn small_cfg() -> SystemConfig {
        SystemConfig {
            eval_users: 16,
            reserve_attackers: 8,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn system_is_sync_and_send() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<BlackBoxSystem>();
    }

    #[test]
    fn clean_system_never_recommends_targets() {
        let sys = BlackBoxSystem::build(toy(), Box::new(ItemPop::new()), small_cfg());
        assert_eq!(sys.clean_rec_num(), 0);
    }

    #[test]
    fn poisoning_itempop_promotes_target() {
        let sys = BlackBoxSystem::build(toy(), Box::new(ItemPop::new()), small_cfg());
        let target = sys.public_info().target_items[0];
        let poison: Vec<Trajectory> = (0..8).map(|_| vec![target; 20]).collect();
        let rec_num = sys.inject_and_observe(&poison);
        assert!(
            rec_num > 0,
            "160 fake clicks should out-popularity a toy catalog"
        );
        assert!(rec_num <= sys.max_rec_num());
    }

    #[test]
    fn observation_is_repeatable_with_fixed_seed() {
        let sys = BlackBoxSystem::build(toy(), Box::new(ItemPop::new()), small_cfg());
        let target = sys.public_info().target_items[0];
        let poison: Vec<Trajectory> = vec![vec![target; 20]];
        let a = sys.inject_and_observe_seeded(&poison, 5);
        let b = sys.inject_and_observe_seeded(&poison, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn sequential_and_batched_observation_agree() {
        let target = {
            let sys = BlackBoxSystem::build(toy(), Box::new(ItemPop::new()), small_cfg());
            sys.public_info().target_items[0]
        };
        let poisons: Vec<Vec<Trajectory>> = (1..=4)
            .map(|reps| vec![vec![target; 4 * reps]; reps])
            .collect();

        let sequential_sys = BlackBoxSystem::build(toy(), Box::new(ItemPop::new()), small_cfg());
        let sequential: Vec<Observation> =
            poisons.iter().map(|p| sequential_sys.observe(p)).collect();

        let batched_sys = BlackBoxSystem::build(toy(), Box::new(ItemPop::new()), small_cfg());
        let batched = batched_sys.observe_batch(&poisons, 4);

        assert_eq!(sequential, batched);
    }

    #[test]
    fn observe_seed_stream_matches_counter_formula() {
        // The observation seed schedule is a public contract: the
        // `i`-th observation of a system's lifetime fine-tunes with
        // `child_seed(cfg.seed, 1000 + i)`. Replaying through the
        // seeded path must reproduce the counter path exactly.
        let cfg = small_cfg();
        let sys = BlackBoxSystem::build(toy(), Box::new(ItemPop::new()), cfg.clone());
        let replay = BlackBoxSystem::build(toy(), Box::new(ItemPop::new()), cfg.clone());
        let target = sys.public_info().target_items[0];
        for i in 0..5u64 {
            let poison: Vec<Trajectory> = vec![vec![target; 5 + i as usize]];
            let live = sys.observe(&poison);
            let expected_seed = child_seed(cfg.seed, 1000 + i);
            assert_eq!(live.seed, expected_seed);
            assert_eq!(
                live.rec_num,
                replay.inject_and_observe_seeded(&poison, expected_seed)
            );
        }
    }

    #[test]
    fn restored_observation_stream_matches_uninterrupted_run() {
        let cfg = small_cfg();
        let full = BlackBoxSystem::build(toy(), Box::new(ItemPop::new()), cfg.clone());
        let resumed = BlackBoxSystem::build(toy(), Box::new(ItemPop::new()), cfg.clone());
        let target = full.public_info().target_items[0];
        let poison: Vec<Trajectory> = vec![vec![target; 6]];
        for _ in 0..4 {
            full.observe(&poison);
        }
        assert_eq!(full.observations_spent(), 4);
        resumed
            .restore_observations_spent(4)
            .expect("fresh system accepts fast-forward");
        assert_eq!(full.observe(&poison), resumed.observe(&poison));
        // Rewinding is refused with a descriptive error.
        let err = resumed.restore_observations_spent(1).expect_err("rewind");
        assert_eq!(err.field, "observations_spent");
    }

    #[test]
    fn retrain_snapshot_shares_the_observation_seed_stream() {
        // A served retrain must be indistinguishable from an observe:
        // same counter, same seed schedule, same RecNum.
        let cfg = small_cfg();
        let observing = BlackBoxSystem::build(toy(), Box::new(ItemPop::new()), cfg.clone());
        let serving = BlackBoxSystem::build(toy(), Box::new(ItemPop::new()), cfg.clone());
        let target = observing.public_info().target_items[0];
        for i in 1..=3u64 {
            let poison: Vec<Trajectory> = vec![vec![target; 4 + i as usize]; 2];
            let observed = observing.observe(&poison);
            let snap = serving.retrain_snapshot(&poison);
            assert_eq!(snap.seed(), observed.seed);
            assert_eq!(snap.generation(), i);
            assert_eq!(
                snap.rec_num(serving.protocol(), serving.base()),
                observed.rec_num
            );
        }
        assert_eq!(serving.observations_spent(), 3);
    }

    #[test]
    fn clean_snapshot_matches_clean_rec_num() {
        let sys = BlackBoxSystem::build(toy(), Box::new(ItemPop::new()), small_cfg());
        let snap = sys.clean_snapshot();
        assert_eq!(snap.generation(), 0);
        assert_eq!(
            snap.rec_num(sys.protocol(), sys.base()),
            sys.clean_rec_num()
        );
        assert_eq!(sys.observations_spent(), 0, "clean snapshot is free");
    }

    #[test]
    fn trait_object_observation_matches_concrete_calls() {
        let cfg = small_cfg();
        let concrete = BlackBoxSystem::build(toy(), Box::new(ItemPop::new()), cfg.clone());
        let erased = BlackBoxSystem::build(toy(), Box::new(ItemPop::new()), cfg.clone());
        let erased: &dyn ObservableSystem = &erased;
        let target = concrete.public_info().target_items[0];
        let poisons: Vec<Vec<Trajectory>> = (1..=3).map(|n| vec![vec![target; 3 * n]; n]).collect();
        let slices: Vec<&[Trajectory]> = poisons.iter().map(|p| p.as_slice()).collect();
        assert_eq!(
            concrete.observe_batch(&poisons, 2),
            erased.observe_batch(&slices, 2)
        );
        assert_eq!(erased.observations_spent(), 3);
        assert_eq!(erased.ranker_name(), "ItemPop");
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn too_many_attackers_panics() {
        let sys = BlackBoxSystem::build(toy(), Box::new(ItemPop::new()), small_cfg());
        let poison: Vec<Trajectory> = (0..9).map(|_| vec![0]).collect();
        let _ = sys.inject_and_observe(&poison);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn oversized_batch_member_panics_before_dispatch() {
        let sys = BlackBoxSystem::build(toy(), Box::new(ItemPop::new()), small_cfg());
        let ok: Vec<Trajectory> = vec![vec![0]];
        let oversized: Vec<Trajectory> = (0..9).map(|_| vec![0]).collect();
        let _ = sys.observe_batch(&[ok, oversized], 2);
    }

    #[test]
    fn public_info_matches_dataset() {
        let sys = BlackBoxSystem::build(toy(), Box::new(ItemPop::new()), small_cfg());
        let info = sys.public_info();
        assert_eq!(info.num_items, 40);
        assert_eq!(info.target_items.len(), 8);
        assert_eq!(info.popularity.len(), 48);
        assert!(info
            .target_items
            .iter()
            .all(|&t| info.popularity[t as usize] == 0));
    }

    #[test]
    fn builder_accepts_defaults_and_rejects_zeros() {
        let cfg = SystemConfig::builder()
            .eval_users(32)
            .top_k(5)
            .seed(3)
            .build()
            .expect("valid config");
        assert_eq!(cfg.eval_users, 32);
        assert_eq!(cfg.top_k, 5);

        for (builder, field) in [
            (SystemConfig::builder().eval_users(0), "eval_users"),
            (SystemConfig::builder().top_k(0), "top_k"),
            (SystemConfig::builder().n_candidates(0), "n_candidates"),
            (
                SystemConfig::builder().reserve_attackers(0),
                "reserve_attackers",
            ),
        ] {
            let err = builder.build().expect_err("must reject zero");
            assert_eq!(err.field, field);
        }
    }
}
