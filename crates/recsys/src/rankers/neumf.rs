//! NeuMF (He et al., 2017): neural collaborative filtering, paper
//! testbed #5. Fuses a generalized-matrix-factorization branch
//! (elementwise product of user/item embeddings) with an MLP branch
//! (concatenated embeddings through ReLU layers), trained with binary
//! cross-entropy on sampled negatives — all on the in-repo autodiff.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use tensor::nn::{Activation, Linear, Mlp};
use tensor::optim::{Optimizer, Sgd};
use tensor::{kernel, GradStore, Graph, Matrix, ParamId, ParamSet};

use crate::data::{ItemId, LogView, UserId};
use crate::rankers::common::{all_pairs, fine_tune_pairs, sample_negative, EmbeddingConfig};
use crate::rankers::Ranker;

/// NeuMF hyperparameters.
#[derive(Copy, Clone, Debug)]
pub struct NeuMfConfig {
    pub dim: usize,
    pub lr: f32,
    pub neg_ratio: usize,
    pub epochs: usize,
    pub ft_epochs: usize,
    pub ft_replay: usize,
    pub batch: usize,
    pub init_scale: f32,
}

impl Default for NeuMfConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            lr: 0.05,
            neg_ratio: 4,
            epochs: 2,
            ft_epochs: 2,
            ft_replay: 1500,
            batch: 256,
            init_scale: 0.05,
        }
    }
}

/// Neural matrix factorization ranker.
#[derive(Clone)]
pub struct NeuMf {
    cfg: NeuMfConfig,
    emb: EmbeddingConfig,
    state: Option<NeuMfState>,
}

#[derive(Clone)]
struct NeuMfState {
    params: ParamSet,
    gmf_user: ParamId,
    gmf_item: ParamId,
    mlp_user: ParamId,
    mlp_item: ParamId,
    mlp: Mlp,
    out: Linear,
}

impl NeuMf {
    pub fn new(cfg: NeuMfConfig, emb: EmbeddingConfig) -> Self {
        Self {
            cfg,
            emb,
            state: None,
        }
    }

    fn init_state(&self, rng: &mut StdRng) -> NeuMfState {
        let d = self.cfg.dim;
        let users = self.emb.user_rows() as usize;
        let items = self.emb.catalog as usize;
        let s = self.cfg.init_scale;
        let mut params = ParamSet::new();
        let gmf_user = params.add("gmf_user", Matrix::uniform(users, d, s, rng));
        let gmf_item = params.add("gmf_item", Matrix::uniform(items, d, s, rng));
        let mlp_user = params.add("mlp_user", Matrix::uniform(users, d, s, rng));
        let mlp_item = params.add("mlp_item", Matrix::uniform(items, d, s, rng));
        let mlp = Mlp::new(
            &mut params,
            "mlp",
            &[2 * d, d, d / 2],
            Activation::Relu,
            Activation::Relu,
            rng,
        );
        let out = Linear::new(&mut params, "out", d + d / 2, 1, rng);
        NeuMfState {
            params,
            gmf_user,
            gmf_item,
            mlp_user,
            mlp_item,
            mlp,
            out,
        }
    }

    /// Builds logits for a batch of (user, item) pairs. The MLP reads
    /// `[mu | mi]` and the output layer `[gmf | mlp_out]` in place
    /// ([`Linear::forward_cols`]), with no concatenated copy.
    fn logits(state: &NeuMfState, g: &mut Graph<'_>, users: &[u32], items: &[u32]) -> tensor::Var {
        let gu = g.gather(state.gmf_user, users);
        let gi = g.gather(state.gmf_item, items);
        let gmf = g.mul(gu, gi);
        let mu = g.gather(state.mlp_user, users);
        let mi = g.gather(state.mlp_item, items);
        let mlp_out = state.mlp.forward_cols(g, &[mu, mi]);
        state.out.forward_cols(g, &[gmf, mlp_out])
    }

    /// [`NeuMf::logits`] for one user row against `items`, without a
    /// tape. Bit-equal to the tape's values: every element is the same
    /// expression over the same operands in the same order.
    ///
    /// The user half of MLP layer 0 is the same partial sum for every
    /// candidate (the kernel chains each element from `+0.0` in
    /// ascending `k`, and the user columns come first). It is computed
    /// once as a `1 x width` product, copied into every candidate row,
    /// and each row's chain continues over the item half. Layer 1 and
    /// the output run the tape's kernels, its bias add (`x += b`) and
    /// its ReLU (`x.max(0.0)`, the activation `init_state` chose).
    fn score_row(state: &NeuMfState, user: usize, items: &[u32]) -> Vec<f32> {
        let p = &state.params;
        let threads = kernel::threads();
        let n = items.len();
        let bias_relu = |x: &mut [f32], b: &Matrix| {
            for row in x.chunks_exact_mut(b.cols()) {
                for (x, &b) in row.iter_mut().zip(b.data()) {
                    *x = (*x + b).max(0.0);
                }
            }
        };

        // GMF branch: `mul(gu, gi)` with the one user row.
        let gu = p.get(state.gmf_user).row_slice(user);
        let gi = p.get(state.gmf_item);
        let mut gmf = Vec::with_capacity(n * gu.len());
        for &i in items {
            gmf.extend(
                gu.iter()
                    .zip(gi.row_slice(i as usize))
                    .map(|(&x, &y)| x * y),
            );
        }

        // MLP layer 0: the shared user prefix, then the item half.
        let (first, rest) = state.mlp.layers().split_first().expect("NeuMF MLP layers");
        let w0 = p.get(first.w);
        let width = w0.cols();
        let mu = p.get(state.mlp_user).row_slice(user);
        let (w_user, w_item) = w0.data().split_at(mu.len() * width);
        let mut prefix = vec![0.0; width];
        kernel::matmul(mu, 1, mu.len(), w_user, width, &mut prefix, threads);
        let mut h = prefix.repeat(n);
        let mlp_item = p.get(state.mlp_item);
        let mut mi = Vec::with_capacity(n * mlp_item.cols());
        for &i in items {
            mi.extend_from_slice(mlp_item.row_slice(i as usize));
        }
        let item_dim = w0.rows() - mu.len();
        kernel::matmul(&mi, n, item_dim, w_item, width, &mut h, threads);
        bias_relu(&mut h, p.get(first.b));
        for layer in rest {
            let w = p.get(layer.w);
            let mut next = vec![0.0; n * w.cols()];
            kernel::matmul(&h, n, w.rows(), w.data(), w.cols(), &mut next, threads);
            bias_relu(&mut next, p.get(layer.b));
            h = next;
        }

        // Output layer over `[gmf | h]`, one part at a time.
        let wo = p.get(state.out.w);
        let (w_gmf, w_mlp) = wo.data().split_at(gu.len() * wo.cols());
        let mut logits = vec![0.0; n * wo.cols()];
        kernel::matmul(&gmf, n, gu.len(), w_gmf, wo.cols(), &mut logits, threads);
        let mlp_dim = wo.rows() - gu.len();
        kernel::matmul(&h, n, mlp_dim, w_mlp, wo.cols(), &mut logits, threads);
        let bo = p.get(state.out.b);
        for row in logits.chunks_exact_mut(bo.cols()) {
            for (x, &b) in row.iter_mut().zip(bo.data()) {
                *x += b;
            }
        }
        logits
    }

    fn train_pass(&mut self, view: &LogView<'_>, pairs: &[(UserId, ItemId)], rng: &mut StdRng) {
        let cfg = self.cfg;
        let emb = self.emb;
        let state = self.state.as_mut().expect("fitted");
        let mut opt = Sgd::new(cfg.lr);
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.shuffle(rng);

        let mut users: Vec<u32> = Vec::with_capacity(cfg.batch);
        let mut items: Vec<u32> = Vec::with_capacity(cfg.batch);
        let mut labels: Vec<f32> = Vec::with_capacity(cfg.batch);
        let mut grads = GradStore::zeros_like(&state.params);

        let mut flush = |users: &mut Vec<u32>,
                         items: &mut Vec<u32>,
                         labels: &mut Vec<f32>,
                         state: &mut NeuMfState,
                         grads: &mut GradStore| {
            if users.is_empty() {
                return;
            }
            let n = users.len();
            let targets = Matrix::from_vec(n, 1, std::mem::take(labels));
            let mask = Matrix::full(n, 1, 1.0);
            {
                let mut g = Graph::new(&state.params);
                let logits = Self::logits(state, &mut g, users, items);
                let loss = g.bce_with_logits(logits, targets, mask);
                g.backward(loss, grads);
            }
            opt.step(&mut state.params, grads);
            grads.zero();
            users.clear();
            items.clear();
        };

        for idx in order {
            let (u, i) = pairs[idx];
            users.push(emb.user_row(u) as u32);
            items.push(i);
            labels.push(1.0);
            for _ in 0..cfg.neg_ratio {
                let j = sample_negative(view, u, rng);
                users.push(emb.user_row(u) as u32);
                items.push(j);
                labels.push(0.0);
            }
            if users.len() >= cfg.batch {
                flush(&mut users, &mut items, &mut labels, state, &mut grads);
            }
        }
        flush(&mut users, &mut items, &mut labels, state, &mut grads);
    }

    fn reset_attacker_rows(&mut self, rng: &mut StdRng) {
        let scale = self.cfg.init_scale;
        let start = self.emb.base_users as usize;
        let state = self.state.as_mut().expect("fitted");
        for id in [state.gmf_user, state.mlp_user] {
            let table = state.params.get_mut(id);
            for r in start..table.rows() {
                for x in table.row_slice_mut(r) {
                    *x = rng.gen_range(-scale..=scale);
                }
            }
        }
    }
}

impl Ranker for NeuMf {
    fn name(&self) -> &'static str {
        "NeuMF"
    }

    fn fit(&mut self, view: &LogView<'_>, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        self.state = Some(self.init_state(&mut rng));
        let pairs = all_pairs(view);
        for _ in 0..self.cfg.epochs {
            self.train_pass(view, &pairs, &mut rng);
        }
    }

    fn fine_tune(&mut self, view: &LogView<'_>, seed: u64) {
        assert!(self.state.is_some(), "NeuMf::fit must run before fine_tune");
        let mut rng = StdRng::seed_from_u64(seed);
        self.reset_attacker_rows(&mut rng);
        for _ in 0..self.cfg.ft_epochs {
            let pairs = fine_tune_pairs(view, self.cfg.ft_replay, &mut rng);
            self.train_pass(view, &pairs, &mut rng);
        }
    }

    fn score(&self, user: UserId, _history: &[ItemId], candidates: &[ItemId]) -> Vec<f32> {
        let state = self
            .state
            .as_ref()
            .expect("NeuMf::fit must run before score");
        Self::score_row(state, self.emb.user_row(user), candidates)
    }

    fn boxed_clone(&self) -> Box<dyn Ranker> {
        Box::new(self.clone())
    }

    fn item_embeddings(&self) -> Option<Matrix> {
        let state = self.state.as_ref()?;
        Some(state.params.get(state.gmf_item).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;

    fn clustered() -> Dataset {
        let mut histories = Vec::new();
        for u in 0..60u32 {
            let offset = if u < 30 { 0 } else { 10 };
            let h: Vec<u32> = (0..8).map(|t| offset + ((u + t) % 10)).collect();
            histories.push(h);
        }
        Dataset::from_histories("clustered", histories, 20, 2)
    }

    #[test]
    fn learns_cluster_structure() {
        let d = clustered();
        let view = LogView::clean(&d);
        let mut r = NeuMf::new(
            NeuMfConfig {
                dim: 8,
                epochs: 10,
                ..NeuMfConfig::default()
            },
            EmbeddingConfig::for_view(&view, 4),
        );
        r.fit(&view, 3);
        let mut in_cluster = 0.0;
        let mut out_cluster = 0.0;
        for u in 0..5u32 {
            let seen = d.sequence(u);
            for i in 0..10u32 {
                if !seen.contains(&i) {
                    in_cluster += r.score(u, &[], &[i])[0];
                    out_cluster += r.score(u, &[], &[i + 10])[0];
                }
            }
        }
        assert!(
            in_cluster > out_cluster,
            "in={in_cluster} out={out_cluster}"
        );
    }

    /// Mean rank (0 = best) of `target` among all original items,
    /// averaged over users 0..10. Absolute logits drift during
    /// fine-tuning; rank is what decides RecNum.
    fn mean_target_rank(r: &NeuMf) -> f32 {
        let candidates: Vec<ItemId> = (0..21).collect(); // 20 originals + target
        let mut total = 0.0;
        for u in 0..10u32 {
            let scores = r.score(u, &[], &candidates);
            let target_score = scores[20];
            total += scores[..20].iter().filter(|&&s| s > target_score).count() as f32;
        }
        total / 10.0
    }

    #[test]
    fn target_only_poison_raises_target_rank() {
        // The paper finds clicking only the target is an effective
        // NeuMF attack; verify the mechanism exists.
        let d = clustered();
        let view = LogView::clean(&d);
        let mut r = NeuMf::new(NeuMfConfig::default(), EmbeddingConfig::for_view(&view, 4));
        r.fit(&view, 3);
        let target = 20;
        let before = mean_target_rank(&r);
        let poison: Vec<Vec<ItemId>> = (0..4).map(|_| vec![target; 20]).collect();
        let pview = LogView::new(&d, &poison);
        let mut poisoned = r.clone();
        poisoned.fine_tune(&pview, 9);
        let after = mean_target_rank(&poisoned);
        assert!(after < before, "rank before={before} after={after}");
    }

    /// The tape-free `score` must give the tape's `logits` bit for bit:
    /// organic and (fine-tuned) attacker rows, a full candidate list
    /// with repeats, one candidate, and no candidates.
    #[test]
    fn score_matches_tape_logits_bitwise() {
        let d = clustered();
        let view = LogView::clean(&d);
        let mut r = NeuMf::new(NeuMfConfig::default(), EmbeddingConfig::for_view(&view, 4));
        r.fit(&view, 7);
        let poison: Vec<Vec<ItemId>> = (0..4).map(|a| vec![20, a, 20, a + 5]).collect();
        r.fine_tune(&LogView::new(&d, &poison), 11);
        let state = r.state.as_ref().expect("fitted");
        let tape = |user: UserId, items: &[ItemId]| -> Vec<u32> {
            let rows = vec![r.emb.user_row(user) as u32; items.len()];
            let mut g = Graph::new(&state.params);
            let logits = NeuMf::logits(state, &mut g, &rows, items);
            g.value(logits).data().iter().map(|x| x.to_bits()).collect()
        };
        let all: Vec<ItemId> = (0..21).chain([3, 20, 0]).collect();
        let lists: [&[ItemId]; 4] = [&all, &[20], &[], &[7, 7]];
        // Users 0..60 are organic, 60..64 the reserved attacker rows.
        for user in [0, 17, 59, 60, 63] {
            for items in lists {
                let got: Vec<u32> = r
                    .score(user, &[], items)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect();
                assert_eq!(got, tape(user, items), "user {user}, items {items:?}");
            }
        }
    }

    #[test]
    fn score_is_deterministic() {
        let d = clustered();
        let view = LogView::clean(&d);
        let mut r = NeuMf::new(NeuMfConfig::default(), EmbeddingConfig::for_view(&view, 4));
        r.fit(&view, 5);
        assert_eq!(r.score(1, &[], &[0, 5, 21]), r.score(1, &[], &[0, 5, 21]));
    }
}
