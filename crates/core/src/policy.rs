//! The PoisonRec policy network π_θ (paper §III-C):
//!
//! * an **LSTM** embeds the variable-length state
//!   `s_t = {u, a_0, …, a_{t-1}}` into `h_t` (Eq. 5);
//! * a 2-layer ReLU **DNN** maps `h_t` to `D(h_t)`;
//! * the next action is sampled from the action space using inner
//!   products between `D(h_t)` and candidate embeddings (Eq. 6 /
//!   Algorithm 2).
//!
//! All `N` attackers share the network; sampling batches them through
//! the LSTM. Trajectory sampling is gradient-free (values only); the
//! PPO update replays stored trajectories through a fresh graph to get
//! gradients of every decision's log-probability.

use rand::rngs::StdRng;
use rand::SeedableRng;
use recsys::data::Trajectory;
use tensor::nn::{Activation, LstmCell, Mlp};
use tensor::{GradStore, Graph, GraphArena, Matrix, ParamId, ParamSet, Var};

use crate::action::{ActionSpace, Choice, ChoiceSet};

/// Policy hyperparameters.
#[derive(Copy, Clone, Debug)]
pub struct PolicyConfig {
    /// Embedding / hidden width `|e|` (paper: 64).
    pub dim: usize,
    /// Number of attackers `N` (paper: 20).
    pub num_attackers: usize,
    /// Trajectory length `T` (paper: 20).
    pub trajectory_len: usize,
    pub init_scale: f32,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        Self {
            dim: 64,
            num_attackers: 20,
            trajectory_len: 20,
            init_scale: 0.1,
        }
    }
}

/// One sampled episode: the N trajectories, the decision trails that
/// produced them, and (once observed) the RecNum reward.
#[derive(Clone, Debug)]
pub struct Episode {
    /// `trajectories[n][t]` = item clicked by attacker `n` at step `t`.
    pub trajectories: Vec<Trajectory>,
    /// `trails[n][t]` = decisions behind that click.
    pub trails: Vec<Vec<Vec<Choice>>>,
    /// RecNum after injection (filled by the trainer).
    pub reward: f32,
}

impl Episode {
    /// Total number of elementary decisions.
    pub fn num_decisions(&self) -> usize {
        self.trails.iter().flatten().map(Vec::len).sum()
    }

    /// Fraction of clicks landing on target items.
    pub fn target_click_ratio(&self, num_items: u32) -> f64 {
        let total: usize = self.trajectories.iter().map(Vec::len).sum();
        if total == 0 {
            return 0.0;
        }
        let on_target: usize = self
            .trajectories
            .iter()
            .flatten()
            .filter(|&&i| i >= num_items)
            .count();
        on_target as f64 / total as f64
    }
}

/// The LSTM + DNN policy network with its embedding tables.
pub struct PolicyNetwork {
    cfg: PolicyConfig,
    params: ParamSet,
    /// One embedding row per attacker slot.
    user_emb: ParamId,
    /// Rows `0..catalog` are item embeddings (LSTM inputs *and* leaf
    /// embeddings); rows past that are the action space's extra nodes.
    action_emb: ParamId,
    lstm: LstmCell,
    dnn: Mlp,
}

impl PolicyNetwork {
    pub fn new(cfg: PolicyConfig, space: &ActionSpace, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let user_emb = params.add(
            "user_emb",
            Matrix::uniform(cfg.num_attackers, cfg.dim, cfg.init_scale, &mut rng),
        );
        let action_emb = params.add(
            "action_emb",
            Matrix::uniform(space.table_rows(), cfg.dim, cfg.init_scale, &mut rng),
        );
        let lstm = LstmCell::new(&mut params, "lstm", cfg.dim, cfg.dim, &mut rng);
        // Two hidden ReLU layers of width |e| (paper §III-C).
        let dnn = Mlp::new(
            &mut params,
            "dnn",
            &[cfg.dim, cfg.dim, cfg.dim],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        Self {
            cfg,
            params,
            user_emb,
            action_emb,
            lstm,
            dnn,
        }
    }

    pub fn config(&self) -> &PolicyConfig {
        &self.cfg
    }

    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    pub fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    /// Samples a full episode (no reward yet). Gradient-free.
    pub fn sample_episode(&self, space: &ActionSpace, rng: &mut StdRng) -> Episode {
        let n = self.cfg.num_attackers;
        let t_len = self.cfg.trajectory_len;
        let mut trajectories: Vec<Trajectory> = vec![Vec::with_capacity(t_len); n];
        let mut trails: Vec<Vec<Vec<Choice>>> = vec![Vec::with_capacity(t_len); n];

        let mut g = Graph::new(&self.params);
        let mut state = self.lstm.zero_state(&mut g, n);
        // Step 0 input: the attacker embeddings.
        let user_rows: Vec<u32> = (0..n as u32).collect();
        let mut x = g.gather(self.user_emb, &user_rows);
        let emb = self.params.get(self.action_emb);

        for _ in 0..t_len {
            state = self.lstm.step(&mut g, x, state);
            let d = self.dnn.forward(&mut g, state.h);
            let d_vals = g.value(d).clone();
            let mut step_items: Vec<u32> = Vec::with_capacity(n);
            for a in 0..n {
                let (item, trail) = space.sample(d_vals.row_slice(a), emb, rng);
                trajectories[a].push(item);
                trails[a].push(trail);
                step_items.push(item);
            }
            // Next input: embeddings of the freshly clicked items.
            x = g.gather(self.action_emb, &step_items);
        }
        Episode {
            trajectories,
            trails,
            reward: 0.0,
        }
    }

    /// Reproducible sample for qualitative analysis: same policy state
    /// and seed always yield the same episode.
    pub fn seeded_episode(&self, space: &ActionSpace, seed: u64) -> Episode {
        let mut rng = StdRng::seed_from_u64(seed);
        self.sample_episode(space, &mut rng)
    }

    /// Replays an episode under the *current* parameters, building the
    /// graph nodes for every decision's log-probability.
    ///
    /// Returns the graph plus groups of `(logp_column, old_logps)`:
    /// each group's node is a `K x 1` column of new log-probabilities
    /// whose rows align with the sampling-time `old_logps`. Grouping
    /// keeps the tape small — the PPO update weights whole columns.
    pub fn replay_logps<'p>(&'p self, episode: &Episode) -> (Graph<'p>, Vec<(Var, Vec<f32>)>) {
        self.replay_logps_in(episode, &mut GraphArena::new())
    }

    /// Like [`PolicyNetwork::replay_logps`] but draws the graph's
    /// allocations from `arena` (retire the graph back into it after
    /// the backward sweeps so the next replay reuses the buffers).
    pub fn replay_logps_in<'p>(
        &'p self,
        episode: &Episode,
        arena: &mut GraphArena,
    ) -> (Graph<'p>, Vec<(Var, Vec<f32>)>) {
        let n = self.cfg.num_attackers.min(episode.trajectories.len());
        let t_len = self.cfg.trajectory_len;
        let mut g = Graph::new_in(&self.params, arena);
        let mut state = self.lstm.zero_state(&mut g, n);
        let user_rows: Vec<u32> = (0..n as u32).collect();
        let mut x = g.gather(self.user_emb, &user_rows);

        // Forward the LSTM over the stored trajectories, collecting the
        // per-step D(h_t) matrices.
        let mut d_steps: Vec<Var> = Vec::with_capacity(t_len);
        for t in 0..t_len {
            state = self.lstm.step(&mut g, x, state);
            let d = self.dnn.forward(&mut g, state.h);
            d_steps.push(d);
            let step_items: Vec<u32> = (0..n).map(|a| episode.trajectories[a][t]).collect();
            x = g.gather(self.action_emb, &step_items);
        }

        // Stack the per-step D(h_t) matrices into one (T·N x e) block so
        // decisions from every step batch together; the decision of
        // attacker `a` at step `t` reads row `t*n + a`.
        let d_all = g.concat_rows(&d_steps);

        // All binary (tree) decisions form one pipeline; flat-softmax
        // decisions form one pipeline per distinct range. The softmax
        // over `|I ∪ I_t|` rows is what makes Plain slow — by design
        // (paper §III-F).
        let mut pair_rows: Vec<u32> = Vec::new();
        let mut left_rows: Vec<u32> = Vec::new();
        let mut right_rows: Vec<u32> = Vec::new();
        let mut pair_chosen: Vec<u32> = Vec::new();
        let mut pair_old: Vec<f32> = Vec::new();
        // (start, end) -> (d rows, chosen, old_logps)
        type RangeGroup = (Vec<u32>, Vec<u32>, Vec<f32>);
        let mut ranges: std::collections::BTreeMap<(u32, u32), RangeGroup> =
            std::collections::BTreeMap::new();
        for t in 0..t_len {
            for a in 0..n {
                let d_row = (t * n + a) as u32;
                for c in &episode.trails[a][t] {
                    match c.set {
                        ChoiceSet::Pair(l, r) => {
                            pair_rows.push(d_row);
                            left_rows.push(l);
                            right_rows.push(r);
                            pair_chosen.push(c.chosen);
                            pair_old.push(c.old_logp);
                        }
                        ChoiceSet::Range(s, e) => {
                            let entry = ranges.entry((s, e)).or_default();
                            entry.0.push(d_row);
                            entry.1.push(c.chosen);
                            entry.2.push(c.old_logp);
                        }
                    }
                }
            }
        }

        let mut groups: Vec<(Var, Vec<f32>)> = Vec::new();
        if !pair_rows.is_empty() {
            // (K x 1): every two-way softmax over ⟨D(h_t), e⟩ (Eq. 6).
            let picked = g.pair_logp(
                d_all,
                &pair_rows,
                self.action_emb,
                &left_rows,
                &right_rows,
                &pair_chosen,
            );
            groups.push((picked, pair_old));
        }
        for ((start, end), (rows, chosen, olds)) in ranges {
            let table_rows: Vec<u32> = (start..end).collect();
            let dk = g.gather_var(d_all, &rows); // (K x e)
            let table = g.gather(self.action_emb, &table_rows); // (R x e)
            let logits = g.matmul_t(dk, table); // (K x R)
            let picked = g.log_softmax_pick(logits, &chosen);
            groups.push((picked, olds));
        }
        (g, groups)
    }

    /// Fresh gradient buffers for this network.
    pub fn zero_grads(&self) -> GradStore {
        GradStore::zeros_like(&self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionSpaceKind;

    fn setup(kind: ActionSpaceKind) -> (PolicyNetwork, ActionSpace) {
        let popularity: Vec<u32> = (0..30).map(|i| 60 - i).collect();
        let space = ActionSpace::build(kind, 30, 4, &popularity, 3);
        let cfg = PolicyConfig {
            dim: 8,
            num_attackers: 3,
            trajectory_len: 5,
            init_scale: 0.1,
        };
        let policy = PolicyNetwork::new(cfg, &space, 11);
        (policy, space)
    }

    #[test]
    fn episode_shape_is_n_by_t() {
        let (policy, space) = setup(ActionSpaceKind::BcbtPopular);
        let mut rng = StdRng::seed_from_u64(5);
        let ep = policy.sample_episode(&space, &mut rng);
        assert_eq!(ep.trajectories.len(), 3);
        assert!(ep.trajectories.iter().all(|t| t.len() == 5));
        assert!(ep.trajectories.iter().flatten().all(|&i| i < 34));
        assert!(ep.num_decisions() >= 15);
    }

    #[test]
    fn replay_matches_sampling_logps() {
        for kind in ActionSpaceKind::ALL {
            let (policy, space) = setup(kind);
            let mut rng = StdRng::seed_from_u64(9);
            let ep = policy.sample_episode(&space, &mut rng);
            let (g, groups) = policy.replay_logps(&ep);
            let total: usize = groups.iter().map(|(_, o)| o.len()).sum();
            assert_eq!(total, ep.num_decisions(), "{kind}");
            // Parameters unchanged ⇒ replayed logps equal sampled ones.
            for (var, olds) in &groups {
                let col = g.value(*var);
                assert_eq!(col.rows(), olds.len());
                for (r, &o) in olds.iter().enumerate() {
                    let new = col.at(r, 0);
                    assert!(
                        (new - o).abs() < 1e-4,
                        "{kind}: replay {new} vs sampled {o}"
                    );
                }
            }
        }
    }

    #[test]
    fn target_click_ratio_counts_targets() {
        let ep = Episode {
            trajectories: vec![vec![0, 30, 31], vec![1, 2, 3]],
            trails: vec![vec![], vec![]],
            reward: 0.0,
        };
        let ratio = ep.target_click_ratio(30);
        assert!((ratio - 2.0 / 6.0).abs() < 1e-9);
    }
}
