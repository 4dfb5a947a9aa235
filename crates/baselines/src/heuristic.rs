//! The four heuristic attacks (paper §IV-A):
//!
//! * **Random** — alternate a random original item and a random target.
//! * **Popular** — alternate a random target and a random item from the
//!   popular set `I_p` (top 10% by popularity).
//! * **Middle** — at every step pick uniformly among `I_t`, `I_p`, and
//!   `I \ I_p` (may click several targets in a row).
//! * **PowerItem** — Seminario & Wilson's power-item attack: alternate
//!   targets with "power items" selected by *in-degree centrality* on
//!   the item co-visitation graph (requires the system log).
//!
//! ## Determinism audit (zoo port)
//!
//! * All randomness is one seeded `StdRng`; crafting is a pure
//!   function of `(kind, seed, public info, n, t)` and is pinned by
//!   `deterministic_given_seed` plus the zoo conformance suite.
//! * Random/Popular/Middle need only *crawlable* knowledge, so the
//!   popular set is now derived from [`PublicInfo::popularity`]
//!   instead of the system log — bit-identical to
//!   `Dataset::popular_set` (same counts, same descending-popularity /
//!   ascending-id order), but honest about the knowledge level.
//! * PowerItem's co-visitation graph uses `HashSet`s whose iteration
//!   order is never observed (only `len()` is read), so hash order
//!   cannot leak into results; the final power-item ranking breaks
//!   ties by item id explicitly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recsys::attack::{
    Attack, AttackCaps, AttackError, AttackStepStats, GuardedSystem, Reader, Writer,
};
use recsys::data::{Dataset, ItemId, Trajectory};
use recsys::system::{ObservableSystem, PublicInfo};

use crate::util;

/// Which heuristic rule to apply.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HeuristicKind {
    Random,
    Popular,
    Middle,
    PowerItem,
}

/// Popular-set size: top `k%` of items (paper example: k = 10).
const POPULAR_PERCENT: f64 = 10.0;
/// Number of power items PowerItem alternates over.
const NUM_POWER_ITEMS: usize = 32;

/// The top `POPULAR_PERCENT`% most popular original items, derived
/// from crawlable popularity alone. Matches `Dataset::popular_set`
/// exactly: descending popularity, ties by ascending id, `ceil` count.
fn popular_set(info: &PublicInfo) -> Vec<ItemId> {
    let mut items: Vec<ItemId> = (0..info.num_items).collect();
    items.sort_by(|&a, &b| {
        info.popularity[b as usize]
            .cmp(&info.popularity[a as usize])
            .then(a.cmp(&b))
    });
    let take = ((info.num_items as f64) * POPULAR_PERCENT / 100.0)
        .ceil()
        .max(1.0) as usize;
    items.truncate(take.min(info.num_items as usize));
    items
}

/// A heuristic trajectory generator.
pub struct HeuristicAttack {
    kind: HeuristicKind,
    seed: u64,
    rng: StdRng,
    /// Prior knowledge for PowerItem (construction-time, never
    /// crawled through the black-box interface).
    log: Option<Dataset>,
    crafted: Option<Vec<Trajectory>>,
}

impl HeuristicAttack {
    pub fn new(kind: HeuristicKind, seed: u64) -> Self {
        Self {
            kind,
            seed,
            rng: StdRng::seed_from_u64(seed),
            log: None,
            crafted: None,
        }
    }

    /// Supplies the system log PowerItem's centrality ranking needs.
    pub fn with_log(kind: HeuristicKind, seed: u64, log: Dataset) -> Self {
        Self {
            log: Some(log),
            ..Self::new(kind, seed)
        }
    }

    /// In-degree centrality power items: items with the most distinct
    /// co-visitation partners in the log.
    fn power_items(base: &Dataset, count: usize) -> Vec<ItemId> {
        let n = base.num_items() as usize;
        let mut partners: Vec<std::collections::HashSet<ItemId>> =
            vec![std::collections::HashSet::new(); n];
        for seq in base.sequences() {
            for pair in seq.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                if a != b {
                    partners[a as usize].insert(b);
                    partners[b as usize].insert(a);
                }
            }
        }
        let mut items: Vec<ItemId> = (0..base.num_items()).collect();
        items.sort_by(|&a, &b| {
            partners[b as usize]
                .len()
                .cmp(&partners[a as usize].len())
                .then(a.cmp(&b))
        });
        items.truncate(count.max(1));
        items
    }

    /// The crafting core: a pure function of the RNG stream, public
    /// info, the (optional) log, and the `n × t` budget.
    fn craft(
        kind: HeuristicKind,
        rng: &mut StdRng,
        info: &PublicInfo,
        power_src: Option<&Dataset>,
        n: usize,
        t: usize,
    ) -> Result<Vec<Trajectory>, AttackError> {
        let targets = &info.target_items;
        let popular = popular_set(info);
        let popular_lookup: std::collections::HashSet<ItemId> = popular.iter().copied().collect();
        let unpopular: Vec<ItemId> = (0..info.num_items)
            .filter(|i| !popular_lookup.contains(i))
            .collect();
        let power = if kind == HeuristicKind::PowerItem {
            let base = power_src.ok_or(AttackError::Capability {
                attack: "PowerItem".to_string(),
                needs: "the system interaction log (supply it at construction)",
            })?;
            Self::power_items(base, NUM_POWER_ITEMS)
        } else {
            Vec::new()
        };
        let pick = |set: &[ItemId], rng: &mut StdRng| set[rng.gen_range(0..set.len())];

        Ok((0..n)
            .map(|_| {
                (0..t)
                    .map(|step| match kind {
                        HeuristicKind::Random => {
                            if step % 2 == 0 {
                                pick(targets, rng)
                            } else {
                                rng.gen_range(0..info.num_items)
                            }
                        }
                        HeuristicKind::Popular => {
                            if step % 2 == 0 {
                                pick(targets, rng)
                            } else {
                                pick(&popular, rng)
                            }
                        }
                        HeuristicKind::Middle => match rng.gen_range(0..3) {
                            0 => pick(targets, rng),
                            1 => pick(&popular, rng),
                            _ => pick(&unpopular, rng),
                        },
                        HeuristicKind::PowerItem => {
                            if step % 2 == 0 {
                                pick(targets, rng)
                            } else {
                                pick(&power, rng)
                            }
                        }
                    })
                    .collect()
            })
            .collect())
    }
}

impl Attack for HeuristicAttack {
    fn name(&self) -> &'static str {
        match self.kind {
            HeuristicKind::Random => "Random",
            HeuristicKind::Popular => "Popular",
            HeuristicKind::Middle => "Middle",
            HeuristicKind::PowerItem => "PowerItem",
        }
    }

    fn encode_config(&self, w: &mut Writer) {
        w.put_u64(self.seed);
    }

    fn caps(&self) -> AttackCaps {
        AttackCaps {
            model_required: self.kind == HeuristicKind::PowerItem,
            ..AttackCaps::default()
        }
    }

    fn planned_steps(&self) -> usize {
        1
    }

    fn steps_done(&self) -> usize {
        usize::from(self.crafted.is_some())
    }

    fn step(
        &mut self,
        system: &GuardedSystem<'_>,
        _threads: usize,
    ) -> Result<AttackStepStats, AttackError> {
        if self.crafted.is_some() {
            return Err(AttackError::State(
                "heuristics craft in a single step; the poison is already built".into(),
            ));
        }
        let budget = system.budget();
        self.crafted = Some(Self::craft(
            self.kind,
            &mut self.rng,
            &system.public_info(),
            self.log.as_ref(),
            budget.fake_users as usize,
            budget.clicks_per_user,
        )?);
        Ok(AttackStepStats {
            step: 0,
            reward: None,
            best_reward: None,
            observations: system.usage().observations,
        })
    }

    fn poison(&self) -> Result<Vec<Trajectory>, AttackError> {
        self.crafted
            .clone()
            .ok_or_else(|| AttackError::State("run the crafting step first".into()))
    }

    fn state_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        util::put_rng(&mut w, &self.rng);
        match &self.crafted {
            None => w.put_u8(0),
            Some(poison) => {
                w.put_u8(1);
                util::put_trajectories(&mut w, poison);
            }
        }
        w.into_bytes()
    }

    fn restore_state(
        &mut self,
        bytes: &[u8],
        _system: &GuardedSystem<'_>,
    ) -> Result<(), AttackError> {
        let mut r = Reader::new(bytes);
        let rng = util::get_rng(&mut r)?;
        let crafted = match r.get_u8("crafted tag")? {
            0 => None,
            _ => Some(util::get_trajectories(&mut r)?),
        };
        r.expect_eof()?;
        self.rng = rng;
        self.crafted = crafted;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recsys::rankers::ItemPop;
    use recsys::system::{BlackBoxSystem, SystemConfig};

    /// The `n × t` poison of `kind` with `seed`, crafted on `system`
    /// with its log.
    fn poison(
        kind: HeuristicKind,
        seed: u64,
        system: &BlackBoxSystem,
        n: u32,
        t: usize,
    ) -> Vec<Trajectory> {
        let mut attack = HeuristicAttack::with_log(kind, seed, system.base().clone());
        util::run_to_poison(&mut attack, system, n, t)
    }

    fn toy_system() -> BlackBoxSystem {
        let histories = (0..50u32)
            .map(|u| (0..6).map(|tt| (u + tt * 11) % 80).collect())
            .collect();
        let data = Dataset::from_histories("toy", histories, 80, 8);
        BlackBoxSystem::build(
            data,
            Box::new(ItemPop::new()),
            SystemConfig {
                eval_users: 10,
                reserve_attackers: 8,
                ..SystemConfig::default()
            },
        )
    }

    #[test]
    fn shapes_and_ranges() {
        let system = toy_system();
        for kind in [
            HeuristicKind::Random,
            HeuristicKind::Popular,
            HeuristicKind::Middle,
            HeuristicKind::PowerItem,
        ] {
            let poison = poison(kind, 3, &system, 5, 12);
            assert_eq!(poison.len(), 5);
            assert!(poison.iter().all(|tr| tr.len() == 12), "{kind:?}");
            assert!(poison.iter().flatten().all(|&i| i < 88), "{kind:?}");
        }
    }

    #[test]
    fn alternating_attacks_hit_targets_half_the_time() {
        let system = toy_system();
        for kind in [
            HeuristicKind::Random,
            HeuristicKind::Popular,
            HeuristicKind::PowerItem,
        ] {
            let poison = poison(kind, 3, &system, 8, 20);
            let total: usize = poison.iter().map(Vec::len).sum();
            let on_target = poison.iter().flatten().filter(|&&i| i >= 80).count();
            assert_eq!(on_target * 2, total, "{kind:?} must alternate");
        }
    }

    #[test]
    fn popular_attack_clicks_popular_items() {
        let system = toy_system();
        let popular: std::collections::HashSet<_> =
            system.base().popular_set(10.0).into_iter().collect();
        let poison = poison(HeuristicKind::Popular, 3, &system, 4, 20);
        for traj in &poison {
            for (step, &item) in traj.iter().enumerate() {
                if step % 2 == 1 {
                    assert!(
                        popular.contains(&item),
                        "step {step} item {item} not popular"
                    );
                }
            }
        }
    }

    #[test]
    fn crawled_popular_set_matches_the_log_derived_one() {
        // The audit fix: the popular set is now derived from public
        // popularity, and must equal `Dataset::popular_set` exactly.
        let system = toy_system();
        assert_eq!(
            popular_set(&system.public_info()),
            system.base().popular_set(POPULAR_PERCENT)
        );
    }

    #[test]
    fn power_items_have_high_degree() {
        let system = toy_system();
        let power = HeuristicAttack::power_items(system.base(), 5);
        assert_eq!(power.len(), 5);
        // The most-connected item must appear before a random tail item
        // would; sanity: no duplicates.
        let mut dedup = power.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 5);
    }

    #[test]
    fn deterministic_given_seed() {
        let system = toy_system();
        let a = poison(HeuristicKind::Middle, 9, &system, 3, 10);
        let b = poison(HeuristicKind::Middle, 9, &system, 3, 10);
        assert_eq!(a, b);
    }

    #[test]
    fn power_item_without_log_is_a_typed_capability_error() {
        let system = toy_system();
        let guard = recsys::attack::GuardedSystem::new(
            &system,
            recsys::attack::AttackBudget {
                fake_users: 4,
                clicks_per_user: 6,
                observations: 0,
            },
        );
        let mut attack = HeuristicAttack::new(HeuristicKind::PowerItem, 3);
        match attack.step(&guard, 1) {
            Err(AttackError::Capability { attack, .. }) => assert_eq!(attack, "PowerItem"),
            other => panic!("expected capability refusal, got {other:?}"),
        }
    }
}
