//! AppGrad (Christakopoulou & Banerjee, RecSys'19, adapted per the
//! paper §IV-A): black-box poisoning by *approximate gradients* over a
//! click-count matrix `M` (`N x |I ∪ I_t|`).
//!
//! Adaptations made by the PoisonRec paper and mirrored here:
//!
//! 1. implicit feedback — `M` holds click counts, initialized from the
//!    same priori knowledge as PoisonRec (about half the clicks on
//!    targets, half on popular items);
//! 2. a fixed budget — every attacker row is projected back to exactly
//!    `T` clicks after each update;
//! 3. no sequence modeling — rows are serialized into trajectories in
//!    *random order*, which is precisely why AppGrad trails PoisonRec
//!    on order-sensitive rankers (CoVisitation, GRU4Rec).
//!
//! The approximate gradient is SPSA (simultaneous perturbation): one
//! RecNum query at `M + Δ` and one at `M − Δ` per iteration, with the
//! loss `f(M) = −RecNum`.
//!
//! ## Determinism audit (zoo port)
//!
//! The method was already fully seeded (one `StdRng`, no iteration
//! over hash containers). The port restructures the monolithic
//! `generate` loop into a resumable step machine — step 0 initializes
//! `M` and spends one observation, each later step is one SPSA
//! iteration spending two — with two invariants pinned by tests:
//!
//! * the RNG call order is untouched, so the step machine produces
//!   **byte-identical** poison to the pre-port code (pinned through
//!   `run_attack` by `tests/end_to_end_attack.rs`);
//! * each iteration's two probes go through one `observe_batch` call,
//!   which draws per-slot seeds in slot order — bit-identical to the
//!   old sequential queries at any thread count.
//!
//! Budget refusals are checked *before* any RNG draw, so a refused
//! step perturbs neither the random stream nor the seed ordinal.
//! Restored state is checked against the step count and the cell's
//! budget and catalog before it replaces anything, so a corrupt or
//! foreign snapshot is a typed refusal instead of a later panic.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use recsys::attack::{
    Attack, AttackCaps, AttackError, AttackStepStats, BudgetKind, BudgetViolation, GuardedSystem,
    Reader, WireError, Writer,
};
use recsys::data::{ItemId, Trajectory};
use recsys::system::{ObservableSystem, PublicInfo};

use crate::util;

/// AppGrad parameters.
#[derive(Copy, Clone, Debug)]
pub struct AppGradConfig {
    /// SPSA iterations (each costs two system queries).
    pub iterations: usize,
    /// Step size applied to the sign of the estimated gradient.
    pub step: f32,
    /// Entries perturbed per attacker row in each SPSA probe.
    pub probe_width: usize,
    /// Size of the candidate item pool (targets + most popular items).
    pub pool: usize,
}

impl Default for AppGradConfig {
    fn default() -> Self {
        Self {
            iterations: 30,
            step: 2.0,
            probe_width: 4,
            pool: 64,
        }
    }
}

/// In-flight SPSA state: the count matrix, the running best, and the
/// candidate pool, all fixed at step 0.
struct SpsaRun {
    pool: Vec<ItemId>,
    n: usize,
    t: usize,
    m: Vec<Vec<f32>>,
    best: Vec<Vec<f32>>,
    best_reward: f32,
    final_poison: Option<Vec<Trajectory>>,
}

/// The approximate-gradient attack.
pub struct AppGrad {
    cfg: AppGradConfig,
    seed: u64,
    rng: StdRng,
    run: Option<SpsaRun>,
    steps_done: usize,
}

impl AppGrad {
    pub fn new(cfg: AppGradConfig, seed: u64) -> Self {
        Self {
            cfg,
            seed,
            rng: StdRng::seed_from_u64(seed),
            run: None,
            steps_done: 0,
        }
    }

    /// Serializes the count matrix into randomized-order trajectories.
    fn to_trajectories(
        m: &[Vec<f32>],
        pool: &[ItemId],
        t: usize,
        rng: &mut StdRng,
    ) -> Vec<Trajectory> {
        m.iter()
            .map(|row| {
                let mut clicks: Vec<ItemId> = Vec::with_capacity(t);
                // Round to integer counts, largest remainders first, so
                // the row sums to exactly T clicks.
                let mut items: Vec<(usize, f32)> = row
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|&(_, c)| c > 0.0)
                    .collect();
                items.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                for &(idx, count) in &items {
                    let take = (count.round() as usize).min(t - clicks.len());
                    for _ in 0..take {
                        clicks.push(pool[idx]);
                    }
                    if clicks.len() == t {
                        break;
                    }
                }
                while clicks.len() < t {
                    clicks.push(pool[0]);
                }
                // AppGrad does not model order: shuffle.
                clicks.shuffle(rng);
                clicks
            })
            .collect()
    }

    /// Projects a row to non-negative entries summing to `t`.
    fn project_row(row: &mut [f32], t: usize) {
        for x in row.iter_mut() {
            *x = x.max(0.0);
        }
        let sum: f32 = row.iter().sum();
        if sum <= 0.0 {
            row[0] = t as f32;
            return;
        }
        let scale = t as f32 / sum;
        for x in row.iter_mut() {
            *x *= scale;
        }
    }

    /// Candidate pool: all targets + the most popular originals.
    fn build_pool(cfg: &AppGradConfig, info: &PublicInfo) -> Vec<ItemId> {
        let mut pool: Vec<ItemId> = info.target_items.clone();
        let mut ranked: Vec<ItemId> = (0..info.num_items).collect();
        ranked.sort_by(|&a, &b| {
            info.popularity[b as usize]
                .cmp(&info.popularity[a as usize])
                .then(a.cmp(&b))
        });
        pool.extend(ranked.into_iter().take(cfg.pool.saturating_sub(pool.len())));
        pool
    }

    fn need(system: &GuardedSystem<'_>, observations: u64) -> Result<(), AttackError> {
        let left = system.observations_left();
        if left < observations {
            return Err(AttackError::Budget(BudgetViolation {
                kind: BudgetKind::Observations,
                requested: system.usage().observations + observations,
                declared: system.budget().observations,
            }));
        }
        Ok(())
    }

    /// Step 0: priori initialization of `M` plus one baseline query.
    fn step_init(
        &mut self,
        system: &GuardedSystem<'_>,
        threads: usize,
    ) -> Result<f32, AttackError> {
        Self::need(system, 1)?;
        let info = system.public_info();
        let budget = system.budget();
        let (n, t) = (budget.fake_users as usize, budget.clicks_per_user);
        let pool = Self::build_pool(&self.cfg, &info);
        let p = pool.len();
        let n_targets = info.target_items.len();

        // Priori initialization: ~half the clicks on targets, and each
        // account concentrates its target clicks on one primary target
        // (spreading the budget over all eight targets dilutes it below
        // any popularity threshold; the paper's AppGrad converges to
        // concentrated target clicking on ItemPop/NeuMF).
        let m: Vec<Vec<f32>> = (0..n)
            .map(|_| {
                let mut row = vec![0.0f32; p];
                let primary = self.rng.gen_range(0..n_targets);
                for _ in 0..t {
                    let idx = if self.rng.gen_bool(0.5) {
                        primary
                    } else {
                        self.rng.gen_range(0..p)
                    };
                    row[idx] += 1.0;
                }
                row
            })
            .collect();

        let trajs = Self::to_trajectories(&m, &pool, t, &mut self.rng);
        let reward = system.try_observe_batch(&[&trajs], threads)?[0].rec_num as f32;
        self.run = Some(SpsaRun {
            pool,
            n,
            t,
            best: m.clone(),
            m,
            best_reward: reward,
            final_poison: None,
        });
        Ok(reward)
    }

    /// One SPSA iteration: probe `M ± Δ` (two queries through a single
    /// batch — same seed ordinals as two sequential queries), track the
    /// best probe, ascend along the winning perturbation.
    fn step_spsa(
        &mut self,
        system: &GuardedSystem<'_>,
        threads: usize,
    ) -> Result<f32, AttackError> {
        Self::need(system, 2)?;
        let run = self.run.as_mut().expect("init step ran");
        let (n, t, p) = (run.n, run.t, run.pool.len());

        // SPSA probe: ±1 perturbations on a few entries per row.
        let delta: Vec<Vec<(usize, f32)>> = (0..n)
            .map(|_| {
                (0..self.cfg.probe_width)
                    .map(|_| {
                        let idx = self.rng.gen_range(0..p);
                        let sign = if self.rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                        (idx, sign)
                    })
                    .collect()
            })
            .collect();

        let perturbed = |dir: f32, rng: &mut StdRng| -> (Vec<Vec<f32>>, Vec<Trajectory>) {
            let mut probe = run.m.clone();
            for (row, ds) in probe.iter_mut().zip(&delta) {
                for &(idx, sign) in ds {
                    row[idx] += dir * sign;
                }
                Self::project_row(row, t);
            }
            let trajs = Self::to_trajectories(&probe, &run.pool, t, rng);
            (probe, trajs)
        };

        let (plus_m, plus_trajs) = perturbed(1.0, &mut self.rng);
        let (minus_m, minus_trajs) = perturbed(-1.0, &mut self.rng);
        let rewards = system.try_observe_batch(&[&plus_trajs, &minus_trajs], threads)?;
        let r_plus = rewards[0].rec_num as f32;
        let r_minus = rewards[1].rec_num as f32;

        // Track the best probe (free lunch from the queries).
        if r_plus > run.best_reward {
            run.best_reward = r_plus;
            run.best = plus_m;
        }
        if r_minus > run.best_reward {
            run.best_reward = r_minus;
            run.best = minus_m;
        }

        // Ascend: move along the perturbation that scored higher.
        if (r_plus - r_minus).abs() > f32::EPSILON {
            let dir = if r_plus > r_minus { 1.0 } else { -1.0 };
            for (row, ds) in run.m.iter_mut().zip(&delta) {
                for &(idx, sign) in ds {
                    row[idx] += self.cfg.step * dir * sign;
                }
                Self::project_row(row, t);
            }
        }
        Ok(r_plus.max(r_minus))
    }

    /// Refuses decoded state this cell could not have produced, naming
    /// the offending field: every later step indexes the pool and both
    /// matrices with these shapes.
    fn check_restored(
        &self,
        steps_done: usize,
        run: Option<&SpsaRun>,
        system: &GuardedSystem<'_>,
    ) -> Result<(), AttackError> {
        let bad = |field: &str, why: String| {
            Err(AttackError::State(format!(
                "AppGrad state field `{field}`: {why}"
            )))
        };
        let planned = self.planned_steps();
        if steps_done > planned {
            return bad(
                "steps_done",
                format!("{steps_done} exceeds the {planned} planned steps"),
            );
        }
        let run = match (steps_done, run) {
            (0, None) => return Ok(()),
            (0, Some(_)) => return bad("run", "present before the init step ran".into()),
            (_, None) => return bad("run", format!("missing after {steps_done} steps")),
            (_, Some(run)) => run,
        };
        let budget = system.budget();
        if run.n != budget.fake_users as usize {
            return bad(
                "n",
                format!(
                    "{} attackers, but the budget declares {}",
                    run.n, budget.fake_users
                ),
            );
        }
        if run.t != budget.clicks_per_user {
            return bad(
                "t",
                format!(
                    "{} clicks per attacker, but the budget declares {}",
                    run.t, budget.clicks_per_user
                ),
            );
        }
        let info = system.public_info();
        let catalog = info.num_items as usize + info.target_items.len();
        if run.pool.is_empty() {
            return bad("pool", "empty".into());
        }
        if let Some(item) = run.pool.iter().find(|&&item| item as usize >= catalog) {
            return bad(
                "pool",
                format!("item {item} outside the {catalog}-item catalog"),
            );
        }
        for (field, m) in [("m", &run.m), ("best", &run.best)] {
            if m.len() != run.n || m.iter().any(|row| row.len() != run.pool.len()) {
                return bad(
                    field,
                    format!("not {} rows of {} entries", run.n, run.pool.len()),
                );
            }
        }
        Ok(())
    }

    fn put_matrix(w: &mut Writer, m: &[Vec<f32>]) {
        w.put_u64(m.len() as u64);
        for row in m {
            w.put_f32s(row);
        }
    }

    fn get_matrix(r: &mut Reader<'_>) -> Result<Vec<Vec<f32>>, WireError> {
        // Each row costs at least its own 8-byte length prefix.
        let rows = r.get_len(8, "matrix rows")?;
        (0..rows).map(|_| r.get_f32s("matrix row")).collect()
    }
}

impl Attack for AppGrad {
    fn name(&self) -> &'static str {
        "AppGrad"
    }

    fn encode_config(&self, w: &mut Writer) {
        w.put_u64(self.cfg.iterations as u64);
        w.put_f32(self.cfg.step);
        w.put_u64(self.cfg.probe_width as u64);
        w.put_u64(self.cfg.pool as u64);
        w.put_u64(self.seed);
    }

    fn caps(&self) -> AttackCaps {
        AttackCaps {
            queries_system: true,
            ..AttackCaps::default()
        }
    }

    fn planned_steps(&self) -> usize {
        self.cfg.iterations + 1
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
            return Err(AttackError::State("all SPSA iterations already ran".into()));
        }
        let reward = if self.steps_done == 0 {
            self.step_init(system, threads)?
        } else {
            self.step_spsa(system, threads)?
        };
        self.steps_done += 1;
        let run = self.run.as_mut().expect("run exists after a step");
        if self.steps_done == self.cfg.iterations + 1 {
            // Same RNG stream position as the original post-loop call.
            run.final_poison = Some(Self::to_trajectories(
                &run.best,
                &run.pool,
                run.t,
                &mut self.rng,
            ));
        }
        Ok(AttackStepStats {
            step: self.steps_done - 1,
            reward: Some(reward),
            best_reward: Some(run.best_reward),
            observations: system.usage().observations,
        })
    }

    fn poison(&self) -> Result<Vec<Trajectory>, AttackError> {
        self.run
            .as_ref()
            .and_then(|run| run.final_poison.clone())
            .ok_or_else(|| AttackError::State("run all SPSA steps first".into()))
    }

    fn state_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        util::put_rng(&mut w, &self.rng);
        w.put_u64(self.steps_done as u64);
        match &self.run {
            None => w.put_u8(0),
            Some(run) => {
                w.put_u8(1);
                w.put_u64(run.n as u64);
                w.put_u64(run.t as u64);
                w.put_u64(run.pool.len() as u64);
                for &item in &run.pool {
                    w.put_u32(item);
                }
                Self::put_matrix(&mut w, &run.m);
                Self::put_matrix(&mut w, &run.best);
                w.put_f32(run.best_reward);
                match &run.final_poison {
                    None => w.put_u8(0),
                    Some(poison) => {
                        w.put_u8(1);
                        util::put_trajectories(&mut w, poison);
                    }
                }
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
        let rng = util::get_rng(&mut r)?;
        let steps_done = r.get_u64("steps done")? as usize;
        let run = match r.get_u8("run tag")? {
            0 => None,
            _ => {
                let n = r.get_u64("attacker count")? as usize;
                let t = r.get_u64("trajectory length")? as usize;
                let pool_len = r.get_len(4, "pool length")?;
                let mut pool = Vec::with_capacity(pool_len);
                for _ in 0..pool_len {
                    pool.push(r.get_u32("pool item")?);
                }
                let m = Self::get_matrix(&mut r)?;
                let best = Self::get_matrix(&mut r)?;
                let best_reward = r.get_f32("best reward")?;
                let final_poison = match r.get_u8("final poison tag")? {
                    0 => None,
                    _ => Some(util::get_trajectories(&mut r)?),
                };
                Some(SpsaRun {
                    pool,
                    n,
                    t,
                    m,
                    best,
                    best_reward,
                    final_poison,
                })
            }
        };
        r.expect_eof()?;
        self.check_restored(steps_done, run.as_ref(), system)?;
        self.rng = rng;
        self.steps_done = steps_done;
        self.run = run;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recsys::attack::AttackBudget;
    use recsys::data::Dataset;
    use recsys::rankers::ItemPop;
    use recsys::system::{BlackBoxSystem, SystemConfig};

    fn toy_system() -> BlackBoxSystem {
        let histories = (0..50u32)
            .map(|u| (0..6).map(|tt| (u * 7 + tt * 3) % 70).collect())
            .collect();
        let data = Dataset::from_histories("toy", histories, 70, 8);
        BlackBoxSystem::build(
            data,
            Box::new(ItemPop::new()),
            SystemConfig {
                eval_users: 20,
                reserve_attackers: 8,
                ..SystemConfig::default()
            },
        )
    }

    #[test]
    fn row_projection_preserves_budget() {
        let mut row = vec![3.0, -2.0, 5.0, 0.5];
        AppGrad::project_row(&mut row, 10);
        assert!(row.iter().all(|&x| x >= 0.0));
        assert!((row.iter().sum::<f32>() - 10.0).abs() < 1e-4);
    }

    #[test]
    fn trajectories_have_exact_length() {
        let system = toy_system();
        let mut attack = AppGrad::new(
            AppGradConfig {
                iterations: 3,
                ..Default::default()
            },
            3,
        );
        let poison = util::run_to_poison(&mut attack, &system, 6, 15);
        assert_eq!(poison.len(), 6);
        assert!(poison.iter().all(|tr| tr.len() == 15));
        assert!(poison.iter().flatten().all(|&i| i < 78));
    }

    #[test]
    fn improves_on_itempop() {
        // ItemPop rewards concentrated target clicking; AppGrad should
        // find a strictly positive RecNum.
        let system = toy_system();
        let mut attack = AppGrad::new(
            AppGradConfig {
                iterations: 12,
                ..Default::default()
            },
            5,
        );
        let poison = util::run_to_poison(&mut attack, &system, 8, 15);
        let reward = system.inject_and_observe_seeded(&poison, 3);
        assert!(reward > 0, "AppGrad found nothing (RecNum {reward})");
    }

    #[test]
    fn refused_step_leaves_rng_and_seed_stream_untouched() {
        let system = toy_system();
        let guard = GuardedSystem::new(
            &system,
            AttackBudget {
                fake_users: 6,
                clicks_per_user: 12,
                observations: 1, // enough for init, not for any SPSA step
            },
        );
        let mut attack = AppGrad::new(AppGradConfig::default(), 7);
        Attack::step(&mut attack, &guard, 1).expect("init fits");
        let state_before = attack.state_bytes();
        let spent_before = system.observations_spent();
        match Attack::step(&mut attack, &guard, 1) {
            Err(AttackError::Budget(v)) => {
                assert_eq!(v.kind, BudgetKind::Observations)
            }
            other => panic!("expected budget refusal, got {other:?}"),
        }
        assert_eq!(attack.state_bytes(), state_before, "RNG must not advance");
        assert_eq!(system.observations_spent(), spent_before);
    }

    #[test]
    fn state_round_trips_through_bytes() {
        let system = toy_system();
        let guard = GuardedSystem::new(
            &system,
            AttackBudget {
                fake_users: 4,
                clicks_per_user: 8,
                observations: 64,
            },
        );
        let mut attack = AppGrad::new(AppGradConfig::default(), 13);
        Attack::step(&mut attack, &guard, 1).unwrap();
        Attack::step(&mut attack, &guard, 1).unwrap();
        let bytes = attack.state_bytes();
        let mut restored = AppGrad::new(AppGradConfig::default(), 99);
        restored.restore_state(&bytes, &guard).unwrap();
        assert_eq!(restored.state_bytes(), bytes);
        assert_eq!(restored.steps_done(), 2);
    }

    #[test]
    fn restore_refuses_impossible_state_by_field() {
        let system = toy_system();
        let guard = GuardedSystem::new(
            &system,
            AttackBudget {
                fake_users: 4,
                clicks_per_user: 8,
                observations: 64,
            },
        );
        let cfg = AppGradConfig::default();
        let mut attack = AppGrad::new(cfg, 13);
        Attack::step(&mut attack, &guard, 1).unwrap();
        Attack::step(&mut attack, &guard, 1).unwrap();
        let valid = attack.state_bytes();

        // Valid mid-run state restores, and the restored attack steps on.
        let mut restored = AppGrad::new(cfg, 99);
        restored.restore_state(&valid, &guard).expect("valid state");
        Attack::step(&mut restored, &guard, 1).expect("restored attack steps on");

        type Corrupt = fn(&mut AppGrad);
        let cases: [(&str, Corrupt); 11] = [
            ("steps_done", |a| a.steps_done = a.planned_steps() + 1),
            ("run", |a| a.steps_done = 0),
            ("run", |a| a.run = None),
            ("n", |a| a.run.as_mut().unwrap().n = 5),
            ("t", |a| a.run.as_mut().unwrap().t = 9),
            ("pool", |a| a.run.as_mut().unwrap().pool.clear()),
            // One past the catalog: 70 originals + 8 targets.
            ("pool", |a| a.run.as_mut().unwrap().pool[1] = 70 + 8),
            ("m", |a| {
                a.run.as_mut().unwrap().m.pop();
            }),
            ("m", |a| {
                a.run.as_mut().unwrap().m[0].pop();
            }),
            ("best", |a| {
                a.run.as_mut().unwrap().best.pop();
            }),
            ("best", |a| a.run.as_mut().unwrap().best[1].push(0.0)),
        ];
        for (field, corrupt) in cases {
            let mut bad = AppGrad::new(cfg, 13);
            bad.restore_state(&valid, &guard).unwrap();
            corrupt(&mut bad);
            let bytes = bad.state_bytes();
            let mut fresh = AppGrad::new(cfg, 13);
            let pristine = fresh.state_bytes();
            match fresh.restore_state(&bytes, &guard) {
                Err(AttackError::State(msg)) => {
                    assert!(msg.contains(&format!("`{field}`")), "{field}: {msg}")
                }
                other => panic!("{field}: expected a typed state refusal, got {other:?}"),
            }
            assert_eq!(
                fresh.state_bytes(),
                pristine,
                "{field}: refusal changed state"
            );
        }
    }
}
