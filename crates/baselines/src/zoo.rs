//! The attack-zoo registry: every implemented [`Attack`] family by
//! name, with one tuning struct and one builder, so experiment drivers
//! and the conformance suite enumerate the whole zoo from a single
//! list (DESIGN.md §5h).

use poisonrec::{run_attack, PoisonRecAttack, PoisonRecConfig, ZooConfig};
use recsys::attack::{Attack, AttackBudget, AttackError};
use recsys::data::{Dataset, Trajectory};
use recsys::system::BlackBoxSystem;

use crate::{
    AppGrad, AppGradConfig, ConsLop, ConsLopConfig, HeuristicAttack, HeuristicKind,
    InfluenceAttack, InfluenceConfig,
};

/// Every attack family registered in the zoo.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum AttackFamily {
    PoisonRec,
    AppGrad,
    ConsLop,
    Influence,
    Random,
    Popular,
    Middle,
    PowerItem,
}

impl AttackFamily {
    pub const ALL: [AttackFamily; 8] = [
        AttackFamily::PoisonRec,
        AttackFamily::AppGrad,
        AttackFamily::ConsLop,
        AttackFamily::Influence,
        AttackFamily::Random,
        AttackFamily::Popular,
        AttackFamily::Middle,
        AttackFamily::PowerItem,
    ];

    /// The six baselines of the paper's Table III, in its column order
    /// (the order experiment drivers print them in).
    pub const BASELINES: [AttackFamily; 6] = [
        AttackFamily::Random,
        AttackFamily::Popular,
        AttackFamily::Middle,
        AttackFamily::PowerItem,
        AttackFamily::ConsLop,
        AttackFamily::AppGrad,
    ];

    pub fn name(self) -> &'static str {
        match self {
            AttackFamily::PoisonRec => "PoisonRec",
            AttackFamily::AppGrad => "AppGrad",
            AttackFamily::ConsLop => "ConsLOP",
            AttackFamily::Influence => "Influence",
            AttackFamily::Random => "Random",
            AttackFamily::Popular => "Popular",
            AttackFamily::Middle => "Middle",
            AttackFamily::PowerItem => "PowerItem",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL
            .iter()
            .copied()
            .find(|k| k.name().eq_ignore_ascii_case(s))
    }

    /// Families whose declared capabilities include the system log
    /// (the [`AttackFamily::build`] `log` argument is mandatory).
    pub fn requires_log(self) -> bool {
        matches!(
            self,
            AttackFamily::ConsLop | AttackFamily::Influence | AttackFamily::PowerItem
        )
    }

    /// Observation queries a full run of this family spends under
    /// `tuning` — what a zoo cell must budget for (excluding any final
    /// evaluation query the driver adds).
    pub fn planned_observations(self, tuning: &ZooTuning) -> u64 {
        match self {
            AttackFamily::PoisonRec => {
                (tuning.poisonrec_steps * tuning.poisonrec.ppo.samples_per_step) as u64
            }
            AttackFamily::AppGrad => 1 + 2 * tuning.appgrad.iterations as u64,
            AttackFamily::Influence => tuning.influence.rounds as u64,
            // ConsLOP and the heuristics craft without querying.
            _ => 0,
        }
    }

    /// Instantiates the family. `log` supplies the system interaction
    /// log to the families that declare `model_required`; passing
    /// `None` to one of those is a typed capability refusal, not a
    /// panic.
    pub fn build(
        self,
        tuning: &ZooTuning,
        log: Option<&Dataset>,
    ) -> Result<Box<dyn Attack>, AttackError> {
        let need_log = || -> Result<Dataset, AttackError> {
            log.cloned().ok_or(AttackError::Capability {
                attack: self.name().to_string(),
                needs: "the system interaction log (pass it to AttackFamily::build)",
            })
        };
        Ok(match self {
            AttackFamily::PoisonRec => Box::new(PoisonRecAttack::new(
                tuning.poisonrec,
                tuning.poisonrec_steps,
            )),
            AttackFamily::AppGrad => Box::new(AppGrad::new(tuning.appgrad, tuning.seed)),
            AttackFamily::ConsLop => Box::new(ConsLop::with_log(tuning.conslop, need_log()?)),
            AttackFamily::Influence => Box::new(InfluenceAttack::new(
                tuning.influence,
                tuning.seed,
                need_log()?,
            )),
            AttackFamily::Random => {
                Box::new(HeuristicAttack::new(HeuristicKind::Random, tuning.seed))
            }
            AttackFamily::Popular => {
                Box::new(HeuristicAttack::new(HeuristicKind::Popular, tuning.seed))
            }
            AttackFamily::Middle => {
                Box::new(HeuristicAttack::new(HeuristicKind::Middle, tuning.seed))
            }
            AttackFamily::PowerItem => Box::new(HeuristicAttack::with_log(
                HeuristicKind::PowerItem,
                tuning.seed,
                need_log()?,
            )),
        })
    }

    /// Runs the family to completion against `system` under an `n × t`
    /// budget with exactly its planned observations, and returns the
    /// poison. The log is the system's own; no final evaluation query
    /// is spent, so the system's seed ordinal advances by the family's
    /// planned observations and nothing else.
    pub fn craft(
        self,
        tuning: &ZooTuning,
        system: &BlackBoxSystem,
        n: usize,
        t: usize,
    ) -> Result<Vec<Trajectory>, AttackError> {
        let mut attack = self.build(tuning, Some(system.base()))?;
        let budget = AttackBudget {
            fake_users: n as u32,
            clicks_per_user: t,
            observations: self.planned_observations(tuning),
        };
        let cfg = ZooConfig {
            evaluate_final: false,
            ..ZooConfig::new(budget)
        };
        Ok(run_attack(attack.as_mut(), system, &cfg, &mut |_| {})?.poison)
    }
}

impl std::fmt::Display for AttackFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-family hyperparameters for a zoo run. One struct so a grid
/// driver can scale every family consistently (and fingerprint the
/// cell from a single place).
#[derive(Clone, Debug)]
pub struct ZooTuning {
    /// Seed for every seeded family (PoisonRec takes its own from
    /// `poisonrec.seed`).
    pub seed: u64,
    pub poisonrec: PoisonRecConfig,
    /// Training steps the PoisonRec cell runs.
    pub poisonrec_steps: usize,
    pub appgrad: AppGradConfig,
    pub conslop: ConsLopConfig,
    pub influence: InfluenceConfig,
}

impl Default for ZooTuning {
    fn default() -> Self {
        Self {
            seed: 7,
            poisonrec: PoisonRecConfig::default(),
            poisonrec_steps: 20,
            appgrad: AppGradConfig::default(),
            conslop: ConsLopConfig::default(),
            influence: InfluenceConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for family in AttackFamily::ALL {
            assert_eq!(AttackFamily::parse(family.name()), Some(family));
        }
        assert_eq!(AttackFamily::parse("nope"), None);
    }

    #[test]
    fn log_requiring_families_refuse_without_one() {
        let tuning = ZooTuning::default();
        for family in AttackFamily::ALL {
            let built = family.build(&tuning, None);
            if family.requires_log() {
                match built {
                    Err(AttackError::Capability { attack, .. }) => {
                        assert_eq!(attack, family.name())
                    }
                    other => panic!(
                        "{family}: expected capability refusal, got {:?}",
                        other.map(|a| a.name().to_string())
                    ),
                }
            } else {
                assert_eq!(built.expect("buildable").name(), family.name());
            }
        }
    }
}
