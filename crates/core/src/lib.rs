//! # poisonrec
//!
//! The paper's primary contribution: an adaptive, reinforcement-
//! learning data-poisoning framework for black-box recommender systems
//! (Song et al., ICDE 2020).
//!
//! * [`action`] — the four action-space designs (§III-C/E): Plain,
//!   BPlain, BCBT-Popular, BCBT-Random, including the Biased Complete
//!   Binary Tree construction and Algorithm 2 sampling.
//! * [`policy`] — the LSTM + DNN policy network π_θ (Eq. 5–6) with
//!   batched trajectory sampling and gradient replay.
//! * [`ppo`] — PPO with the clipped surrogate (Eq. 7/9) and batch
//!   reward normalization (Eq. 8).
//! * [`trainer`] — Algorithm 1: sample, inject, observe RecNum, update.
//! * [`checkpoint`] — the versioned crash-safe checkpoint container
//!   and the trainer's state body; resumed runs continue
//!   bit-identically.
//! * [`zoo`] — the one attack lifecycle: any [`recsys::attack::Attack`]
//!   run with the same budget boundary, sealed checkpoints, and fault
//!   injection, plus [`zoo::PoisonRecAttack`] adapting Algorithm 1
//!   itself onto the trait.
//!
//! ```no_run
//! use poisonrec::{PoisonRecConfig, PoisonRecTrainer};
//! use recsys::rankers::RankerKind;
//! use recsys::system::{BlackBoxSystem, SystemConfig};
//! use recsys::data::{Dataset, LogView};
//!
//! # let histories = (0..200u32).map(|u| (0..8).map(|t| (u + t) % 100).collect()).collect();
//! let data = Dataset::from_histories("demo", histories, 100, 8);
//! let ranker = RankerKind::CoVisitation.build(&LogView::clean(&data), 64);
//! let system = BlackBoxSystem::build(data, ranker, SystemConfig::default());
//!
//! let mut trainer = PoisonRecTrainer::new(PoisonRecConfig::default(), &system);
//! trainer.train(&system, 10);
//! println!("best RecNum: {:?}", trainer.best_episode().map(|e| e.reward));
//! ```

pub mod action;
pub mod checkpoint;
pub mod policy;
pub mod ppo;
pub mod trainer;
pub mod zoo;

pub use action::{ActionSpace, ActionSpaceKind, Choice, ChoiceSet, ItemTree};
pub use checkpoint::CheckpointError;
pub use policy::{Episode, PolicyConfig, PolicyNetwork};
pub use ppo::{normalize_rewards, PpoConfig, PpoUpdater};
pub use trainer::{
    PoisonRecConfig, PoisonRecConfigBuilder, PoisonRecTrainer, StepLogger, StepStats,
};
pub use zoo::{run_attack, zoo_fingerprint, PoisonRecAttack, ZooConfig, ZooEvent, ZooRun};
