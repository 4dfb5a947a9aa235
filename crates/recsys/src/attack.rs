//! The attack-zoo contract: one [`Attack`] trait for every poisoning
//! family, with declared capabilities, hard budgets, and typed
//! refusals (DESIGN.md §5h).
//!
//! PoisonRec is one point in a space of black-box poisoning attacks.
//! The related work (influence-function promotion, approximate-
//! gradient ascent, co-visitation injection, popularity heuristics)
//! differs along two axes the zoo makes explicit:
//!
//! * **Capabilities** ([`AttackCaps`]) — what the attack *needs* from
//!   the victim: exact model gradients (`gradient_required`), the
//!   system's interaction log / model internals (`model_required`), or
//!   RecNum query access (`queries_system`). A mismatch between an
//!   attack's needs and what a system provides is a typed
//!   [`AttackError::Capability`], never a panic: the experiment
//!   driver refuses the cell up front.
//! * **Budgets** ([`AttackBudget`]) — how much the attack may spend:
//!   fake accounts, clicks per account, and black-box observations
//!   (the paper's query budget). Budgets are *enforced and counted at
//!   the [`ObservableSystem`] boundary* by [`GuardedSystem`], not on
//!   the honor system — an attack that tries to overspend gets a
//!   typed [`AttackError::Budget`] back (or, if it bypasses the
//!   fallible path, a panic at the hard boundary), and every event it
//!   does spend is tallied in [`BudgetUsage`].
//!
//! ## Observation-stream discipline
//!
//! Attacks run through a [`GuardedSystem`] borrow and must route every
//! observation through it. The guard forwards to the underlying
//! system's pre-seeded ordinal stream, so the repo's determinism
//! invariants survive for free: a zoo attack is bit-identical across
//! thread counts, in-process vs over the wire ([`crate::remote`]), and
//! kill+resume — the conformance gate (`tests/conformance.rs`) pins
//! all three for **every** registered family under every defense kind.
//!
//! ## Checkpointing
//!
//! [`Attack::state_bytes`] / [`Attack::restore_state`] round-trip the
//! attack's complete mutable state (RNG position, learned matrices,
//! bests) through the little-endian [`tensor::wire`] codecs; the zoo
//! driver seals them into the versioned checkpoint container together
//! with the guard's usage ledger. [`Attack::encode_config`] writes the
//! attack's tuning into the container's fingerprint, so a checkpoint
//! never resumes under a different configuration.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::data::Trajectory;
use crate::system::{ConfigError, ObservableSystem, Observation, PublicInfo, SystemConfig};

pub use tensor::wire::{Codec, Reader, WireError, Writer};

/// What a victim system can provide to an attack. The zoo's systems
/// are black boxes: no current [`ObservableSystem`] exposes gradients,
/// so `gradient_required` attacks are refused everywhere — the typed
/// error (not a panic) is itself part of the contract and is pinned by
/// the capability-mismatch property tests.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SystemCaps {
    /// The system hands out exact model gradients (white-box access).
    pub gradients: bool,
}

/// Capability metadata an attack declares up front (the ARLib idiom:
/// `recommenderGradientRequired` / `recommenderModelRequired`).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AttackCaps {
    /// Needs exact gradients of the victim model (white-box).
    pub gradient_required: bool,
    /// Needs the system's interaction log (gray-box prior knowledge,
    /// supplied to the attack at construction time — never crawled
    /// through the black-box interface).
    pub model_required: bool,
    /// Spends black-box observations (RecNum queries) while running.
    pub queries_system: bool,
}

/// The attacker's spend limits, enforced by [`GuardedSystem`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AttackBudget {
    /// Fake accounts (`N`): no injected poison may contain more
    /// trajectories than this.
    pub fake_users: u32,
    /// Clicks per fake account (`T`): no injected trajectory may be
    /// longer than this.
    pub clicks_per_user: usize,
    /// Black-box observations (the query budget `Q`). Zero is legal:
    /// the log-free heuristics never query during crafting.
    pub observations: u64,
}

impl AttackBudget {
    /// A validating builder; degenerate `N`/`T` values are refused at
    /// construction rather than surfacing as empty poisons mid-grid.
    pub fn builder() -> AttackBudgetBuilder {
        AttackBudgetBuilder {
            budget: AttackBudget {
                fake_users: 8,
                clicks_per_user: 12,
                observations: 0,
            },
        }
    }
}

/// Builds an [`AttackBudget`], rejecting zero-sized account or click
/// budgets (an observation budget of zero is meaningful — see
/// [`AttackBudget::observations`]).
#[derive(Copy, Clone, Debug)]
pub struct AttackBudgetBuilder {
    budget: AttackBudget,
}

impl AttackBudgetBuilder {
    pub fn fake_users(mut self, fake_users: u32) -> Self {
        self.budget.fake_users = fake_users;
        self
    }

    pub fn clicks_per_user(mut self, clicks_per_user: usize) -> Self {
        self.budget.clicks_per_user = clicks_per_user;
        self
    }

    pub fn observations(mut self, observations: u64) -> Self {
        self.budget.observations = observations;
        self
    }

    pub fn build(self) -> Result<AttackBudget, ConfigError> {
        let budget = self.budget;
        if budget.fake_users == 0 {
            return Err(ConfigError {
                field: "fake_users",
                message: "an attack needs at least one fake account".into(),
            });
        }
        if budget.clicks_per_user == 0 {
            return Err(ConfigError {
                field: "clicks_per_user",
                message: "zero-click accounts cannot express any poison".into(),
            });
        }
        Ok(budget)
    }
}

/// Which budget axis an overspend hit.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BudgetKind {
    FakeUsers,
    ClicksPerUser,
    Observations,
}

impl BudgetKind {
    fn noun(self) -> &'static str {
        match self {
            BudgetKind::FakeUsers => "fake users",
            BudgetKind::ClicksPerUser => "clicks per user",
            BudgetKind::Observations => "observations",
        }
    }
}

/// A refused overspend: the attack asked for `requested` of a
/// resource it declared only `declared` of.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BudgetViolation {
    pub kind: BudgetKind,
    pub requested: u64,
    pub declared: u64,
}

impl std::fmt::Display for BudgetViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "budget violation: {} {} requested but only {} declared",
            self.requested,
            self.kind.noun(),
            self.declared
        )
    }
}

/// Typed refusals from the attack layer. Every recoverable failure an
/// [`Attack`] or the zoo driver can hit maps onto one of these — the
/// conformance and property suites assert attacks *return* them
/// instead of panicking.
#[derive(Clone, Debug, PartialEq)]
pub enum AttackError {
    /// The attack needs something this system (or this construction)
    /// does not provide.
    Capability { attack: String, needs: &'static str },
    /// An observation or injection would overspend the declared budget.
    Budget(BudgetViolation),
    /// A configuration value failed validation.
    Config(ConfigError),
    /// Invalid lifecycle or corrupted serialized state.
    State(String),
}

impl std::fmt::Display for AttackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttackError::Capability { attack, needs } => {
                write!(f, "attack {attack} refused: requires {needs}")
            }
            AttackError::Budget(v) => v.fmt(f),
            AttackError::Config(e) => e.fmt(f),
            AttackError::State(msg) => write!(f, "invalid attack state: {msg}"),
        }
    }
}

impl std::error::Error for AttackError {}

impl From<ConfigError> for AttackError {
    fn from(e: ConfigError) -> Self {
        AttackError::Config(e)
    }
}

impl From<WireError> for AttackError {
    fn from(e: WireError) -> Self {
        AttackError::State(e.to_string())
    }
}

/// The guard's tally of what an attack has actually spent. Counters
/// are atomic for the same reason the system's observation counter is:
/// observations may be scored concurrently.
#[derive(Debug, Default)]
pub struct BudgetUsage {
    observations: AtomicU64,
    feedback_events: AtomicU64,
    peak_fake_users: AtomicU64,
    peak_clicks_per_user: AtomicU64,
}

/// A plain-data copy of [`BudgetUsage`] for reports and checkpoints.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct UsageSnapshot {
    /// Observations consumed through the guard.
    pub observations: u64,
    /// Total injected feedback events (clicks) across all observations.
    pub feedback_events: u64,
    /// Largest number of fake accounts in any single injection.
    pub peak_fake_users: u64,
    /// Longest injected trajectory.
    pub peak_clicks_per_user: u64,
}

impl BudgetUsage {
    pub fn snapshot(&self) -> UsageSnapshot {
        UsageSnapshot {
            observations: self.observations.load(Ordering::Relaxed),
            feedback_events: self.feedback_events.load(Ordering::Relaxed),
            peak_fake_users: self.peak_fake_users.load(Ordering::Relaxed),
            peak_clicks_per_user: self.peak_clicks_per_user.load(Ordering::Relaxed),
        }
    }

    fn restore(&self, snapshot: UsageSnapshot) {
        self.observations
            .store(snapshot.observations, Ordering::Relaxed);
        self.feedback_events
            .store(snapshot.feedback_events, Ordering::Relaxed);
        self.peak_fake_users
            .store(snapshot.peak_fake_users, Ordering::Relaxed);
        self.peak_clicks_per_user
            .store(snapshot.peak_clicks_per_user, Ordering::Relaxed);
    }

    fn record(&self, batch: &[&[Trajectory]]) {
        self.observations
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        for poison in batch {
            self.peak_fake_users
                .fetch_max(poison.len() as u64, Ordering::Relaxed);
            for traj in poison.iter() {
                self.feedback_events
                    .fetch_add(traj.len() as u64, Ordering::Relaxed);
                self.peak_clicks_per_user
                    .fetch_max(traj.len() as u64, Ordering::Relaxed);
            }
        }
    }
}

/// The budget boundary every zoo attack runs behind: a borrowed
/// [`ObservableSystem`] plus the declared [`AttackBudget`] and the
/// live [`BudgetUsage`] ledger.
///
/// The fallible entry points ([`GuardedSystem::try_observe_batch`] /
/// [`GuardedSystem::try_observe`]) validate *before* touching the
/// inner system — a refused observation consumes nothing from the
/// seed stream — and tally afterwards. The guard also implements
/// [`ObservableSystem`] itself so existing trainers can run unchanged
/// behind it; on that path a violation is a panic (the hard boundary),
/// which is why well-behaved adapters pre-check through
/// [`GuardedSystem::observations_left`].
pub struct GuardedSystem<'a> {
    inner: &'a dyn ObservableSystem,
    budget: AttackBudget,
    usage: BudgetUsage,
}

impl<'a> GuardedSystem<'a> {
    pub fn new(inner: &'a dyn ObservableSystem, budget: AttackBudget) -> Self {
        Self {
            inner,
            budget,
            usage: BudgetUsage::default(),
        }
    }

    pub fn budget(&self) -> AttackBudget {
        self.budget
    }

    pub fn usage(&self) -> UsageSnapshot {
        self.usage.snapshot()
    }

    /// Observations still available under the declared budget.
    pub fn observations_left(&self) -> u64 {
        self.budget
            .observations
            .saturating_sub(self.usage.snapshot().observations)
    }

    /// Checkpoint resume: restores the usage ledger to a snapshot
    /// taken by a previous (killed) run over an identically built
    /// system.
    pub fn restore_usage(&self, snapshot: UsageSnapshot) {
        self.usage.restore(snapshot);
    }

    fn check(&self, batch: &[&[Trajectory]]) -> Result<(), BudgetViolation> {
        for poison in batch {
            if poison.len() as u64 > self.budget.fake_users as u64 {
                return Err(BudgetViolation {
                    kind: BudgetKind::FakeUsers,
                    requested: poison.len() as u64,
                    declared: self.budget.fake_users as u64,
                });
            }
            for traj in poison.iter() {
                if traj.len() > self.budget.clicks_per_user {
                    return Err(BudgetViolation {
                        kind: BudgetKind::ClicksPerUser,
                        requested: traj.len() as u64,
                        declared: self.budget.clicks_per_user as u64,
                    });
                }
            }
        }
        let spent = self.usage.snapshot().observations;
        let requested = spent + batch.len() as u64;
        if requested > self.budget.observations {
            return Err(BudgetViolation {
                kind: BudgetKind::Observations,
                requested,
                declared: self.budget.observations,
            });
        }
        Ok(())
    }

    /// Budget-checked [`ObservableSystem::observe_batch`]: refuses the
    /// whole batch (spending nothing) on any violation.
    pub fn try_observe_batch(
        &self,
        batch: &[&[Trajectory]],
        threads: usize,
    ) -> Result<Vec<Observation>, AttackError> {
        self.check(batch).map_err(AttackError::Budget)?;
        let observations = self.inner.observe_batch(batch, threads);
        self.usage.record(batch);
        Ok(observations)
    }

    /// Budget-checked single observation.
    pub fn try_observe(&self, poison: &[Trajectory]) -> Result<Observation, AttackError> {
        let mut obs = self.try_observe_batch(&[poison], 1)?;
        Ok(obs.remove(0))
    }
}

impl ObservableSystem for GuardedSystem<'_> {
    fn config(&self) -> &SystemConfig {
        self.inner.config()
    }

    fn public_info(&self) -> PublicInfo {
        self.inner.public_info()
    }

    fn ranker_name(&self) -> &str {
        self.inner.ranker_name()
    }

    fn observations_spent(&self) -> u64 {
        self.inner.observations_spent()
    }

    fn restore_observations_spent(&self, spent: u64) -> Result<(), ConfigError> {
        self.inner.restore_observations_spent(spent)
    }

    /// The hard boundary: same accounting as
    /// [`GuardedSystem::try_observe_batch`], but a violation panics.
    /// Attacks that drive pre-zoo trainers through the plain trait
    /// cannot silently bypass the budget — at worst they crash into it.
    fn observe_batch(&self, batch: &[&[Trajectory]], threads: usize) -> Vec<Observation> {
        match self.try_observe_batch(batch, threads) {
            Ok(observations) => observations,
            Err(e) => panic!("attack overspent its declared budget: {e}"),
        }
    }

    fn caps(&self) -> SystemCaps {
        self.inner.caps()
    }

    fn defense_state(&self) -> Vec<u8> {
        self.inner.defense_state()
    }

    fn restore_defense_state(&self, state: &[u8]) -> Result<(), ConfigError> {
        self.inner.restore_defense_state(state)
    }
}

/// Per-step report every attack returns from [`Attack::step`] — the
/// unit the conformance suite compares bit-for-bit across thread
/// counts, transports, and kill+resume.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct AttackStepStats {
    /// 0-based step ordinal.
    pub step: usize,
    /// The step's headline reward (family-specific: mean episode
    /// RecNum for PoisonRec, probe RecNum for SPSA, the round's
    /// observation for influence). `None` for crafting-only steps.
    pub reward: Option<f32>,
    /// Best reward seen so far, if the family tracks one.
    pub best_reward: Option<f32>,
    /// Cumulative observations spent through the guard after this step.
    pub observations: u64,
}

impl Codec for AttackStepStats {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.step as u64);
        match self.reward {
            Some(r) => {
                w.put_u8(1);
                w.put_f32(r);
            }
            None => w.put_u8(0),
        }
        match self.best_reward {
            Some(r) => {
                w.put_u8(1);
                w.put_f32(r);
            }
            None => w.put_u8(0),
        }
        w.put_u64(self.observations);
    }

    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        let step = r.get_u64("step")? as usize;
        let reward = match r.get_u8("reward tag")? {
            0 => None,
            _ => Some(r.get_f32("reward")?),
        };
        let best_reward = match r.get_u8("best reward tag")? {
            0 => None,
            _ => Some(r.get_f32("best reward")?),
        };
        let observations = r.get_u64("observations")?;
        Ok(Self {
            step,
            reward,
            best_reward,
            observations,
        })
    }
}

/// One poisoning attack family, step-driven so a single zoo driver can
/// checkpoint, fault-inject, and meter every family identically.
///
/// ## Contract
///
/// * [`Attack::step`] advances the attack by one unit of work, routing
///   **all** observations through the supplied [`GuardedSystem`]. It
///   must be deterministic given the attack's state and the system's
///   observation stream — in particular independent of `threads`.
/// * [`Attack::poison`] returns the crafted `N × T` injection without
///   consuming observations or mutating state.
/// * [`Attack::state_bytes`] / [`Attack::restore_state`] round-trip
///   the complete mutable state: a restored attack's next `step` must
///   produce exactly the bytes the original's would have.
/// * Recoverable failures are typed [`AttackError`]s, never panics.
pub trait Attack: Send {
    /// Paper name of the family (stable: fingerprinted into zoo
    /// checkpoints).
    fn name(&self) -> &'static str;

    /// Writes every tuning value that decides the run (seeds, step
    /// sizes, pool sizes; never the thread count) for the zoo
    /// checkpoint fingerprint: a checkpoint resumed under different
    /// tuning is refused instead of silently continuing.
    fn encode_config(&self, w: &mut Writer);

    /// Declared capability requirements.
    fn caps(&self) -> AttackCaps;

    /// Steps this attack wants to run under its configuration.
    fn planned_steps(&self) -> usize;

    /// Steps completed so far.
    fn steps_done(&self) -> usize;

    /// One unit of work (craft, probe, or train), spending
    /// observations only through `system`.
    fn step(
        &mut self,
        system: &GuardedSystem<'_>,
        threads: usize,
    ) -> Result<AttackStepStats, AttackError>;

    /// The crafted poison to deploy. Errors until enough steps ran.
    fn poison(&self) -> Result<Vec<Trajectory>, AttackError>;

    /// Serializes the complete mutable state for checkpointing.
    fn state_bytes(&self) -> Vec<u8>;

    /// Restores state serialized by [`Attack::state_bytes`] on a
    /// freshly constructed instance (same configuration and seed).
    fn restore_state(
        &mut self,
        bytes: &[u8],
        system: &GuardedSystem<'_>,
    ) -> Result<(), AttackError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::rankers::ItemPop;
    use crate::system::{BlackBoxSystem, SystemConfig};

    fn toy_system() -> BlackBoxSystem {
        let histories = (0..30u32)
            .map(|u| (0..6).map(|t| (u + t * 3) % 40).collect())
            .collect();
        let data = Dataset::from_histories("toy", histories, 40, 8);
        BlackBoxSystem::build(
            data,
            Box::new(ItemPop::new()),
            SystemConfig {
                eval_users: 16,
                reserve_attackers: 8,
                ..SystemConfig::default()
            },
        )
    }

    fn budget(n: u32, t: usize, q: u64) -> AttackBudget {
        AttackBudget {
            fake_users: n,
            clicks_per_user: t,
            observations: q,
        }
    }

    #[test]
    fn budget_builder_rejects_degenerate_axes() {
        assert!(AttackBudget::builder().observations(0).build().is_ok());
        let err = AttackBudget::builder()
            .fake_users(0)
            .build()
            .expect_err("zero accounts");
        assert_eq!(err.field, "fake_users");
        let err = AttackBudget::builder()
            .clicks_per_user(0)
            .build()
            .expect_err("zero clicks");
        assert_eq!(err.field, "clicks_per_user");
    }

    #[test]
    fn guard_meters_and_refuses_each_axis() {
        let system = toy_system();
        let target = system.public_info().target_items[0];
        let guard = GuardedSystem::new(&system, budget(2, 4, 2));

        let ok: Vec<Trajectory> = vec![vec![target; 4]; 2];
        guard.try_observe(&ok).expect("within budget");
        assert_eq!(guard.usage().observations, 1);
        assert_eq!(guard.usage().feedback_events, 8);
        assert_eq!(guard.usage().peak_fake_users, 2);
        assert_eq!(guard.usage().peak_clicks_per_user, 4);

        let too_many_users: Vec<Trajectory> = vec![vec![target; 1]; 3];
        match guard.try_observe(&too_many_users) {
            Err(AttackError::Budget(v)) => assert_eq!(v.kind, BudgetKind::FakeUsers),
            other => panic!("expected fake-user violation, got {other:?}"),
        }

        let too_long: Vec<Trajectory> = vec![vec![target; 5]];
        match guard.try_observe(&too_long) {
            Err(AttackError::Budget(v)) => assert_eq!(v.kind, BudgetKind::ClicksPerUser),
            other => panic!("expected clicks violation, got {other:?}"),
        }

        // Refusals spent nothing.
        assert_eq!(guard.usage().observations, 1);
        assert_eq!(system.observations_spent(), 1);

        guard.try_observe(&ok).expect("second observation");
        match guard.try_observe(&ok) {
            Err(AttackError::Budget(v)) => {
                assert_eq!(v.kind, BudgetKind::Observations);
                assert_eq!(v.declared, 2);
            }
            other => panic!("expected observation violation, got {other:?}"),
        }
        assert_eq!(guard.observations_left(), 0);
    }

    #[test]
    fn guard_refusal_consumes_no_seed_ordinal() {
        // A refused batch must not perturb the seed stream: the next
        // accepted observation draws the same seed it would have drawn
        // had the refusal never happened.
        let reference = toy_system();
        let guarded = toy_system();
        let target = reference.public_info().target_items[0];
        let poison: Vec<Trajectory> = vec![vec![target; 3]];

        let guard = GuardedSystem::new(&guarded, budget(1, 3, 8));
        let oversized: Vec<Trajectory> = vec![vec![target; 99]];
        assert!(guard.try_observe(&oversized).is_err());
        let a = guard.try_observe(&poison).expect("accepted");
        let b = reference.observe(&poison);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "overspent")]
    fn hard_boundary_panics_on_bypass() {
        let system = toy_system();
        let guard = GuardedSystem::new(&system, budget(1, 2, 0));
        let erased: &dyn ObservableSystem = &guard;
        let poison: Vec<Trajectory> = vec![vec![0, 1]];
        let _ = erased.observe_batch(&[&poison], 1);
    }

    #[test]
    fn step_stats_round_trip_bit_exactly() {
        for stats in [
            AttackStepStats {
                step: 0,
                reward: None,
                best_reward: None,
                observations: 0,
            },
            AttackStepStats {
                step: 7,
                reward: Some(-0.0),
                best_reward: Some(f32::MAX),
                observations: 41,
            },
        ] {
            let back = AttackStepStats::from_bytes(&stats.to_bytes()).expect("decodes");
            assert_eq!(back.step, stats.step);
            assert_eq!(
                back.reward.map(f32::to_bits),
                stats.reward.map(f32::to_bits)
            );
            assert_eq!(
                back.best_reward.map(f32::to_bits),
                stats.best_reward.map(f32::to_bits)
            );
            assert_eq!(back.observations, stats.observations);
        }
    }

    #[test]
    fn black_box_systems_declare_no_gradients() {
        let system = toy_system();
        assert_eq!(ObservableSystem::caps(&system), SystemCaps::default());
        assert!(!ObservableSystem::caps(&system).gradients);
    }
}
