//! ConsLOP (Yang et al., NDSS'17): the constrained-linear-optimization
//! co-visitation injection attack, rebuilt for the paper's budgeted
//! trajectory setting (§IV-A).
//!
//! The method is *white-box for CoVisitation*: it knows the item-item
//! co-visitation graph (from the system log) and decides (1) which
//! items to pair the single target item with and (2) how many fake
//! co-visitations each pair receives, maximizing the number of users
//! whose recommendations flip, subject to the total budget
//! `N·T/2` co-visitations.
//!
//! Our solver is the greedy relaxation of that program: each candidate
//! partner item `j` has a *cost* (enough injected co-visits for the
//! target to become `j`'s strongest partner, `max_w(j) + 1`) and a
//! *reach* (how many users have `j` in their history). Partners are
//! taken in descending reach/cost ratio until the budget runs out —
//! the classic greedy for this coverage-knapsack, optimal up to the
//! usual (1 − 1/e) factor.
//!
//! As in the paper, ConsLOP promotes a *single* target item, and the
//! resulting trajectories are reused verbatim against the other
//! (non-CoVisitation) rankers.
//!
//! ## Determinism audit (zoo port)
//!
//! Two findings, both fixed here:
//!
//! * The struct carried a **dead, unused RNG** (`#[allow(dead_code)]`),
//!   suggesting randomness where there is none. ConsLOP is fully
//!   deterministic; the field is gone, and the only constructor takes
//!   the log and no seed.
//! * The greedy knapsack sorted candidates by a **float ratio with no
//!   tie-break**, so equal-ratio partners kept `sort_by`'s input order
//!   — stable here, but one refactor away from hash-order dependence.
//!   Ties now break by ascending item id explicitly.
//!
//! The `HashMap`/`HashSet` accumulations are safe as-is: only
//! order-independent folds (`max`, counting inserts) ever read them.

use recsys::attack::{
    Attack, AttackCaps, AttackError, AttackStepStats, GuardedSystem, Reader, Writer,
};
use recsys::data::{Dataset, ItemId, Trajectory};
use recsys::system::ObservableSystem;

use crate::util;

/// ConsLOP parameters.
#[derive(Copy, Clone, Debug)]
pub struct ConsLopConfig {
    /// How many top-frequency items are considered as partners.
    pub candidate_pool: usize,
}

impl Default for ConsLopConfig {
    fn default() -> Self {
        Self {
            candidate_pool: 256,
        }
    }
}

/// The greedy co-visitation injection planner.
pub struct ConsLop {
    cfg: ConsLopConfig,
    /// Prior knowledge: the system interaction log (construction-time,
    /// never crawled through the black-box interface).
    log: Dataset,
    crafted: Option<Vec<Trajectory>>,
}

impl ConsLop {
    /// Supplies the system log the co-visitation program needs.
    pub fn with_log(cfg: ConsLopConfig, log: Dataset) -> Self {
        Self {
            cfg,
            log,
            crafted: None,
        }
    }

    /// Plans `(partner, co-visit count)` allocations for `budget`
    /// co-visitations.
    fn plan(&self, budget: usize) -> Vec<(ItemId, usize)> {
        let base = &self.log;
        // Strongest existing co-visit weight per item (the bar the
        // injected edge must clear) and per-item user reach.
        let n = base.num_items() as usize;
        let mut max_w = vec![0u32; n];
        let mut covisit: std::collections::HashMap<(ItemId, ItemId), u32> =
            std::collections::HashMap::new();
        let mut reach = vec![0u32; n];
        for seq in base.sequences() {
            let mut seen = std::collections::HashSet::new();
            for &i in seq {
                if seen.insert(i) {
                    reach[i as usize] += 1;
                }
            }
            for pair in seq.windows(2) {
                if pair[0] != pair[1] {
                    let key = (pair[0].min(pair[1]), pair[0].max(pair[1]));
                    *covisit.entry(key).or_insert(0) += 1;
                }
            }
        }
        for (&(a, b), &w) in &covisit {
            max_w[a as usize] = max_w[a as usize].max(w);
            max_w[b as usize] = max_w[b as usize].max(w);
        }

        // Candidate pool: the most-reached items.
        let mut pool: Vec<ItemId> = (0..base.num_items()).collect();
        pool.sort_by(|&a, &b| reach[b as usize].cmp(&reach[a as usize]).then(a.cmp(&b)));
        pool.truncate(self.cfg.candidate_pool);

        // Greedy knapsack by reach / cost, equal ratios broken by
        // ascending item id so the plan never depends on input order.
        let mut scored: Vec<(f64, ItemId, usize)> = pool
            .into_iter()
            .map(|j| {
                let cost = max_w[j as usize] as usize + 1;
                (reach[j as usize] as f64 / cost as f64, j, cost)
            })
            .collect();
        scored.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });

        let mut remaining = budget;
        let mut allocation = Vec::new();
        for (_, j, cost) in scored {
            if cost <= remaining {
                allocation.push((j, cost));
                remaining -= cost;
            }
        }
        // Spend leftovers reinforcing the best partner.
        if remaining > 0 {
            if let Some(first) = allocation.first_mut() {
                first.1 += remaining;
            }
        }
        allocation
    }

    /// The crafting core: pure function of the log, the target list,
    /// and the `n × t` budget.
    fn craft(&self, target: ItemId, n: usize, t: usize) -> Vec<Trajectory> {
        let budget = n * t / 2;
        let plan = self.plan(budget);

        // Serialize the plan into co-visit click pairs (target, j) and
        // deal them round-robin across the N attacker accounts.
        let mut clicks: Vec<ItemId> = Vec::with_capacity(n * t);
        'outer: for (j, count) in plan {
            for _ in 0..count {
                if clicks.len() + 2 > n * t {
                    break 'outer;
                }
                clicks.push(target);
                clicks.push(j);
            }
        }
        // Pad underfull budgets with extra target clicks.
        while clicks.len() < n * t {
            clicks.push(target);
        }

        clicks.chunks(t).take(n).map(|c| c.to_vec()).collect()
    }
}

impl Attack for ConsLop {
    fn name(&self) -> &'static str {
        "ConsLOP"
    }

    fn encode_config(&self, w: &mut Writer) {
        w.put_u64(self.cfg.candidate_pool as u64);
    }

    fn caps(&self) -> AttackCaps {
        AttackCaps {
            model_required: true,
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
                "ConsLOP plans in a single step; the poison is already built".into(),
            ));
        }
        let budget = system.budget();
        // Single-target method: promote the first target item.
        let target = system.public_info().target_items[0];
        self.crafted = Some(self.craft(target, budget.fake_users as usize, budget.clicks_per_user));
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
            .ok_or_else(|| AttackError::State("run the planning step first".into()))
    }

    fn state_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
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
        let crafted = match r.get_u8("crafted tag")? {
            0 => None,
            _ => Some(util::get_trajectories(&mut r)?),
        };
        r.expect_eof()?;
        self.crafted = crafted;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recsys::rankers::CoVisitation;
    use recsys::system::{BlackBoxSystem, SystemConfig};

    fn toy_system() -> BlackBoxSystem {
        // Item 0 is in everyone's history; items beyond are scattered.
        let histories = (0..60u32)
            .map(|u| vec![0, 1 + u % 20, 21 + u % 30, 1 + (u + 5) % 20])
            .collect();
        let data = Dataset::from_histories("toy", histories, 60, 8);
        BlackBoxSystem::build(
            data,
            Box::new(CoVisitation::new()),
            SystemConfig {
                eval_users: 40,
                reserve_attackers: 16,
                ..SystemConfig::default()
            },
        )
    }

    /// The `n × t` plan crafted on `system` with its log.
    fn poison(system: &BlackBoxSystem, n: u32, t: usize) -> Vec<Trajectory> {
        let mut attack = ConsLop::with_log(ConsLopConfig::default(), system.base().clone());
        util::run_to_poison(&mut attack, system, n, t)
    }

    #[test]
    fn generates_exact_budget() {
        let system = toy_system();
        let poison = poison(&system, 6, 10);
        assert_eq!(poison.len(), 6);
        assert!(poison.iter().all(|tr| tr.len() == 10));
    }

    #[test]
    fn pairs_target_with_partners() {
        let system = toy_system();
        let poison = poison(&system, 6, 10);
        let target = system.public_info().target_items[0];
        // Roughly half the clicks are on the single target; the rest
        // are partner items.
        let flat: Vec<_> = poison.iter().flatten().copied().collect();
        let on_target = flat.iter().filter(|&&i| i == target).count();
        assert!(
            on_target >= flat.len() / 2,
            "target clicks {on_target}/{}",
            flat.len()
        );
        assert!(
            flat.iter().all(|&i| i == target || i < 60),
            "only the single target may be promoted"
        );
    }

    #[test]
    fn beats_nothing_on_covisitation() {
        let system = toy_system();
        let before = system.clean_rec_num();
        let poison = poison(&system, 16, 10);
        let after = system.inject_and_observe_seeded(&poison, 7);
        assert_eq!(before, 0);
        assert!(
            after > 0,
            "ConsLOP failed on its home turf (RecNum {after})"
        );
    }

    #[test]
    fn plan_is_deterministic() {
        let system = toy_system();
        let a = poison(&system, 8, 10);
        let b = poison(&system, 8, 10);
        // No randomness at all: two fresh planners, identical plans.
        assert_eq!(a, b);
    }
}
