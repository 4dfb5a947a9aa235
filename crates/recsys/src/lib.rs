//! # recsys
//!
//! The recommender-system substrate of the PoisonRec reproduction:
//!
//! * [`data`] — implicit-feedback interaction logs, leave-one-out
//!   splits, and the [`data::LogView`] overlay that injects attacker
//!   trajectories without copying the base log.
//! * [`rankers`] — the eight testbed algorithms of the paper (ItemPop,
//!   CoVisitation, PMF, BPR, NeuMF, AutoRec, GRU4Rec, NGCF) behind one
//!   [`rankers::Ranker`] trait with full-fit and warm fine-tune paths.
//! * [`eval`] — the paper's evaluation protocol: random candidate
//!   generation (92 originals + 8 targets), top-10 ranking, and the
//!   *RecNum* page-view metric.
//! * [`system`] — [`system::BlackBoxSystem`], the attack surface:
//!   inject fake trajectories, observe RecNum, learn nothing else.
//! * [`defense`] — the layered online defense subsystem: anomaly
//!   detectors (popularity deviation, repetition, k-NN LOF), the
//!   calibrated [`defense::DefenseStack`] (token bucket, reputation,
//!   adaptive threshold ladder) judging every incoming trajectory,
//!   and [`defense::DefendedSystem`], the hardened victim the attack
//!   zoo is evaluated against (DESIGN.md §5j).
//! * [`snapshot`] — [`snapshot::RankerSnapshot`], the generation-tagged
//!   immutable read path a served retrain publishes (DESIGN.md §5e).
//! * [`remote`] — [`remote::RemoteSystem`], the same
//!   [`system::ObservableSystem`] observation API spoken over a socket
//!   to a `serve` instance: the attack literally goes over the wire.
//! * [`attack`] — the attack-zoo contract: the [`attack::Attack`]
//!   trait with declared capabilities and budgets, and the
//!   budget-enforcing [`attack::GuardedSystem`] boundary every zoo
//!   attack observes through (DESIGN.md §5h).
//!
//! ```no_run
//! use recsys::data::Dataset;
//! use recsys::rankers::RankerKind;
//! use recsys::system::{BlackBoxSystem, SystemConfig};
//!
//! let histories = (0..100u32)
//!     .map(|u| (0..8).map(|t| (u + t) % 50).collect())
//!     .collect();
//! let data = Dataset::from_histories("demo", histories, 50, 8);
//! let view = recsys::data::LogView::clean(&data);
//! let ranker = RankerKind::Bpr.build(&view, 32);
//! let system = BlackBoxSystem::build(data, ranker, SystemConfig::default());
//!
//! let target = system.public_info().target_items[0];
//! let poison = vec![vec![target; 20]; 20];
//! println!("RecNum after poisoning: {}", system.inject_and_observe(&poison));
//! ```

pub mod attack;
pub mod data;
pub mod defense;
pub mod eval;
pub mod rankers;
pub mod remote;
pub mod snapshot;
pub mod system;

pub use attack::{
    Attack, AttackBudget, AttackCaps, AttackError, AttackStepStats, BudgetKind, BudgetUsage,
    BudgetViolation, GuardedSystem, SystemCaps, UsageSnapshot,
};
pub use data::{Dataset, ItemId, LogView, Trajectory, UserId};
pub use defense::{DefendedSystem, DefenseKind, DefenseStack, LofDetector, Verdict, VerdictCounts};
pub use rankers::{Ranker, RankerKind, UnknownRanker};
pub use remote::{RemoteError, RemoteSystem};
pub use snapshot::RankerSnapshot;
pub use system::{
    BlackBoxSystem, ConfigError, ObservableSystem, Observation, PublicInfo, SystemConfig,
    SystemConfigBuilder,
};
