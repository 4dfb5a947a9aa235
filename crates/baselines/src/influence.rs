//! Influence-function top-N promotion (after Fang et al., "Influence
//! Function based Data Poisoning Attacks to Top-N Recommender
//! Systems", WWW'20 — see PAPERS.md): the zoo's related-work family,
//! implemented natively rather than ported from `related/`.
//!
//! The original attack trains a *surrogate* matrix-factorization model
//! on the (known) interaction log, scores every candidate filler item
//! by its aggregate influence on user preference scores, and builds
//! fake profiles that mix target clicks with the highest-influence
//! fillers, so the poisoned retrain drags real users' neighborhoods
//! toward the targets.
//!
//! Our budgeted-trajectory adaptation keeps that structure:
//!
//! 1. **Surrogate fit** (step 0, no queries): PMF on the log; each
//!    item's influence score is `Σ_u cos(pref_u, e_j)` where `pref_u`
//!    is the mean embedding of user `u`'s history — computed via the
//!    factorization `(Σ_u pref_u / ‖pref_u‖) · e_j / ‖e_j‖` with `f64`
//!    accumulation in fixed user order, so the score is exact and
//!    deterministic.
//! 2. **Mix sweep** (steps 1..=rounds, one query each): candidate
//!    profiles interleave target clicks at fraction `k/(rounds+1)`
//!    with top-influence fillers (largest-remainder interleaving, no
//!    RNG), and the black-box RecNum picks the winning mix — the
//!    budget-constrained analogue of the paper's line search over the
//!    unnoticeability constraint.
//!
//! The whole family is RNG-free: determinism comes from the seeded
//! surrogate fit and fixed iteration orders.

use recsys::attack::{
    Attack, AttackCaps, AttackError, AttackStepStats, BudgetKind, BudgetViolation, GuardedSystem,
    Reader, Writer,
};
use recsys::data::{Dataset, ItemId, LogView, Trajectory};
use recsys::rankers::common::child_seed;
use recsys::rankers::{EmbeddingConfig, Pmf, PmfConfig, Ranker};
use recsys::system::ObservableSystem;

use crate::util;

/// Influence-attack parameters.
#[derive(Copy, Clone, Debug)]
pub struct InfluenceConfig {
    /// Target-fraction candidates swept (each costs one query).
    pub rounds: usize,
    /// Surrogate PMF embedding dimension.
    pub dim: usize,
    /// Surrogate PMF training epochs.
    pub epochs: usize,
    /// How many top-influence fillers the profiles cycle over.
    pub filler_pool: usize,
}

impl Default for InfluenceConfig {
    fn default() -> Self {
        Self {
            rounds: 5,
            dim: 16,
            epochs: 3,
            filler_pool: 32,
        }
    }
}

/// The influence-function promotion attack.
pub struct InfluenceAttack {
    cfg: InfluenceConfig,
    seed: u64,
    log: Dataset,
    fillers: Option<Vec<ItemId>>,
    best: Option<(Vec<Trajectory>, u32)>,
    steps_done: usize,
}

impl InfluenceAttack {
    /// The log is prior knowledge the surrogate needs — the same
    /// knowledge level as ConsLOP and PowerItem (paper §IV-A).
    pub fn new(cfg: InfluenceConfig, seed: u64, log: Dataset) -> Self {
        Self {
            cfg,
            seed,
            log,
            fillers: None,
            best: None,
            steps_done: 0,
        }
    }

    /// Fits the surrogate and ranks filler items by influence score.
    fn rank_fillers(&self) -> Vec<ItemId> {
        let view = LogView::clean(&self.log);
        let mut surrogate = Pmf::new(
            PmfConfig {
                dim: self.cfg.dim,
                epochs: self.cfg.epochs,
                ..PmfConfig::default()
            },
            EmbeddingConfig::for_view(&view, 0),
        );
        surrogate.fit(&view, child_seed(self.seed, 77));
        let emb = surrogate
            .item_embeddings()
            .expect("PMF always exposes item embeddings");
        let dim = emb.cols();

        // Aggregate normalized user preference direction, f64 in fixed
        // user order so the fold is exact.
        let mut agg = vec![0.0f64; dim];
        for seq in self.log.sequences() {
            if seq.is_empty() {
                continue;
            }
            let mut pref = vec![0.0f64; dim];
            for &item in seq {
                for (p, &e) in pref.iter_mut().zip(emb.row_slice(item as usize)) {
                    *p += e as f64;
                }
            }
            let norm = pref.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 0.0 {
                for (a, p) in agg.iter_mut().zip(&pref) {
                    *a += p / norm;
                }
            }
        }

        // score(j) = agg · e_j / ‖e_j‖, over original items only.
        let mut scored: Vec<(f64, ItemId)> = (0..self.log.num_items())
            .map(|j| {
                let row = emb.row_slice(j as usize);
                let dot: f64 = agg.iter().zip(row).map(|(a, &e)| a * e as f64).sum();
                let norm = row.iter().map(|&e| (e as f64).powi(2)).sum::<f64>().sqrt();
                (if norm > 0.0 { dot / norm } else { f64::MIN }, j)
            })
            .collect();
        scored.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        scored
            .into_iter()
            .take(self.cfg.filler_pool.max(1))
            .map(|(_, j)| j)
            .collect()
    }

    /// Builds the candidate poison for target fraction `frac` by
    /// largest-remainder interleaving — deterministic, no RNG.
    fn mix(
        targets: &[ItemId],
        fillers: &[ItemId],
        frac: f64,
        n: usize,
        t: usize,
    ) -> Vec<Trajectory> {
        let mut filler_cursor = 0usize;
        (0..n)
            .map(|u| {
                let primary = targets[u % targets.len()];
                let mut acc = 0.0f64;
                (0..t)
                    .map(|_| {
                        acc += frac;
                        if acc >= 1.0 {
                            acc -= 1.0;
                            primary
                        } else {
                            let item = fillers[filler_cursor % fillers.len()];
                            filler_cursor += 1;
                            item
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

impl Attack for InfluenceAttack {
    fn name(&self) -> &'static str {
        "Influence"
    }

    fn encode_config(&self, w: &mut Writer) {
        w.put_u64(self.cfg.rounds as u64);
        w.put_u64(self.cfg.dim as u64);
        w.put_u64(self.cfg.epochs as u64);
        w.put_u64(self.cfg.filler_pool as u64);
        w.put_u64(self.seed);
    }

    fn caps(&self) -> AttackCaps {
        AttackCaps {
            model_required: true,
            queries_system: true,
            ..AttackCaps::default()
        }
    }

    fn planned_steps(&self) -> usize {
        1 + self.cfg.rounds
    }

    fn steps_done(&self) -> usize {
        self.steps_done
    }

    fn step(
        &mut self,
        system: &GuardedSystem<'_>,
        threads: usize,
    ) -> Result<AttackStepStats, AttackError> {
        if self.steps_done >= self.planned_steps() {
            return Err(AttackError::State("the mix sweep already finished".into()));
        }
        let reward = if self.steps_done == 0 {
            self.fillers = Some(self.rank_fillers());
            None
        } else {
            if system.observations_left() < 1 {
                return Err(AttackError::Budget(BudgetViolation {
                    kind: BudgetKind::Observations,
                    requested: system.usage().observations + 1,
                    declared: system.budget().observations,
                }));
            }
            let fillers = self.fillers.as_ref().expect("surrogate step ran");
            let info = system.public_info();
            let budget = system.budget();
            let frac = self.steps_done as f64 / (self.cfg.rounds + 1) as f64;
            let poison = Self::mix(
                &info.target_items,
                fillers,
                frac,
                budget.fake_users as usize,
                budget.clicks_per_user,
            );
            let obs = system.try_observe_batch(&[&poison], threads)?;
            let rec_num = obs[0].rec_num;
            if self.best.as_ref().is_none_or(|&(_, r)| rec_num > r) {
                self.best = Some((poison, rec_num));
            }
            Some(rec_num as f32)
        };
        self.steps_done += 1;
        Ok(AttackStepStats {
            step: self.steps_done - 1,
            reward,
            best_reward: self.best.as_ref().map(|&(_, r)| r as f32),
            observations: system.usage().observations,
        })
    }

    fn poison(&self) -> Result<Vec<Trajectory>, AttackError> {
        self.best
            .as_ref()
            .map(|(p, _)| p.clone())
            .ok_or_else(|| AttackError::State("run the mix sweep first".into()))
    }

    fn state_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.steps_done as u64);
        match &self.fillers {
            None => w.put_u8(0),
            Some(fillers) => {
                w.put_u8(1);
                w.put_u64(fillers.len() as u64);
                for &item in fillers {
                    w.put_u32(item);
                }
            }
        }
        match &self.best {
            None => w.put_u8(0),
            Some((poison, rec_num)) => {
                w.put_u8(1);
                util::put_trajectories(&mut w, poison);
                w.put_u32(*rec_num);
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
        let steps_done = r.get_u64("steps done")? as usize;
        let fillers = match r.get_u8("fillers tag")? {
            0 => None,
            _ => {
                let len = r.get_len(4, "filler count")?;
                let mut fillers = Vec::with_capacity(len);
                for _ in 0..len {
                    fillers.push(r.get_u32("filler item")?);
                }
                Some(fillers)
            }
        };
        let best = match r.get_u8("best tag")? {
            0 => None,
            _ => {
                let poison = util::get_trajectories(&mut r)?;
                let rec_num = r.get_u32("best rec_num")?;
                Some((poison, rec_num))
            }
        };
        r.expect_eof()?;
        self.steps_done = steps_done;
        self.fillers = fillers;
        self.best = best;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recsys::attack::AttackBudget;
    use recsys::rankers::ItemPop;
    use recsys::system::{BlackBoxSystem, SystemConfig};

    fn toy() -> (BlackBoxSystem, Dataset) {
        let histories: Vec<Vec<u32>> = (0..50u32)
            .map(|u| (0..6).map(|tt| (u * 3 + tt * 5) % 64).collect())
            .collect();
        let data = Dataset::from_histories("toy", histories.clone(), 64, 8);
        let log = Dataset::from_histories("toy", histories, 64, 8);
        let system = BlackBoxSystem::build(
            data,
            Box::new(ItemPop::new()),
            SystemConfig {
                eval_users: 20,
                reserve_attackers: 8,
                ..SystemConfig::default()
            },
        );
        (system, log)
    }

    fn run(seed: u64) -> (Vec<Trajectory>, u64) {
        let (system, log) = toy();
        let guard = GuardedSystem::new(
            &system,
            AttackBudget {
                fake_users: 6,
                clicks_per_user: 10,
                observations: 8,
            },
        );
        let mut attack = InfluenceAttack::new(InfluenceConfig::default(), seed, log);
        while attack.steps_done() < attack.planned_steps() {
            attack.step(&guard, 2).unwrap();
        }
        (attack.poison().unwrap(), guard.usage().observations)
    }

    #[test]
    fn sweep_spends_one_query_per_round_and_returns_a_full_budget() {
        let (poison, spent) = run(3);
        assert_eq!(spent, InfluenceConfig::default().rounds as u64);
        assert_eq!(poison.len(), 6);
        assert!(poison.iter().all(|tr| tr.len() == 10));
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(run(3).0, run(3).0);
    }

    #[test]
    fn mix_fraction_controls_target_density() {
        let targets = vec![100, 101];
        let fillers = vec![1, 2, 3];
        let half = InfluenceAttack::mix(&targets, &fillers, 0.5, 2, 10);
        let on_target: usize = half.iter().flatten().filter(|&&i| i >= 100).count();
        assert_eq!(on_target, 10, "half the clicks at frac 0.5");
        let none = InfluenceAttack::mix(&targets, &fillers, 0.0, 2, 10);
        assert!(none.iter().flatten().all(|&i| i < 100));
    }

    #[test]
    fn exhausted_budget_is_a_typed_refusal() {
        let (system, log) = toy();
        let guard = GuardedSystem::new(
            &system,
            AttackBudget {
                fake_users: 6,
                clicks_per_user: 10,
                observations: 1,
            },
        );
        let mut attack = InfluenceAttack::new(InfluenceConfig::default(), 3, log);
        attack.step(&guard, 1).unwrap(); // surrogate, free
        attack.step(&guard, 1).unwrap(); // first probe
        match attack.step(&guard, 1) {
            Err(AttackError::Budget(v)) => assert_eq!(v.kind, BudgetKind::Observations),
            other => panic!("expected budget refusal, got {other:?}"),
        }
    }

    #[test]
    fn state_round_trips_mid_sweep() {
        let (system, log) = toy();
        let guard = GuardedSystem::new(
            &system,
            AttackBudget {
                fake_users: 6,
                clicks_per_user: 10,
                observations: 8,
            },
        );
        let mut attack = InfluenceAttack::new(InfluenceConfig::default(), 3, log.clone());
        attack.step(&guard, 1).unwrap();
        attack.step(&guard, 1).unwrap();
        let bytes = attack.state_bytes();
        let mut restored = InfluenceAttack::new(InfluenceConfig::default(), 3, log);
        restored.restore_state(&bytes, &guard).unwrap();
        assert_eq!(restored.state_bytes(), bytes);
        assert_eq!(restored.steps_done(), 2);
    }
}
