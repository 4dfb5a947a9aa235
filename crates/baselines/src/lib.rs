//! # baselines
//!
//! The attack methods PoisonRec is compared against (paper §IV-A) plus
//! one related-work family: four heuristics (Random, Popular, Middle,
//! PowerItem), two learning-based methods (ConsLOP, AppGrad), and the
//! influence-function promotion attack (Fang et al., WWW'20).
//!
//! Knowledge levels differ by design and match the paper:
//!
//! * Random / Popular / Middle use only crawlable item popularity.
//! * PowerItem, ConsLOP, and Influence additionally require the
//!   **system log** (the paper includes the former two "to better
//!   illustrate the advantages of PoisonRec" despite their stronger
//!   knowledge assumption).
//! * AppGrad and Influence, like PoisonRec, query the black-box system
//!   for RecNum feedback.
//!
//! Every method implements [`recsys::attack::Attack`] and is
//! registered in [`zoo::AttackFamily`]. That is the one interface:
//! the paper-table drivers run the baselines through
//! [`AttackFamily::craft`] (`AttackFamily::build` + `run_attack`), and
//! the conformance gate (`tests/conformance.rs`) enumerates the whole
//! zoo under every defense kind.

mod appgrad;
mod conslop;
mod heuristic;
mod influence;
mod util;
pub mod zoo;

pub use appgrad::{AppGrad, AppGradConfig};
pub use conslop::{ConsLop, ConsLopConfig};
pub use heuristic::{HeuristicAttack, HeuristicKind};
pub use influence::{InfluenceAttack, InfluenceConfig};
pub use zoo::{AttackFamily, ZooTuning};
