//! NGCF (Wang et al., 2019): neural graph collaborative filtering,
//! paper testbed #8. Embeddings are propagated over the normalized
//! user-item bipartite adjacency:
//!
//! `E^{l+1} = LeakyReLU( (L + I) E^l W1_l  +  (L E^l) ⊙ E^l W2_l )`
//!
//! with `L = D^{-1/2} A D^{-1/2}`. The final representation is the
//! concatenation of all layer outputs and training minimizes the BPR
//! loss over sampled triples. Injected attackers add new graph nodes
//! and edges, which is the attack surface: poison edges reshape the
//! propagation neighborhood of the target items.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::optim::{Optimizer, Sgd};
use tensor::sparse::Csr;
use tensor::{GradStore, Graph, Matrix, ParamId, ParamSet, Var};

use crate::data::{ItemId, LogView, UserId};
use crate::rankers::common::{sample_negative, EmbeddingConfig};
use crate::rankers::Ranker;

/// NGCF hyperparameters.
#[derive(Copy, Clone, Debug)]
pub struct NgcfConfig {
    pub dim: usize,
    pub layers: usize,
    pub lr: f32,
    pub reg: f32,
    /// BPR triples per training step.
    pub batch: usize,
    /// Full-fit training steps (each does one full propagation).
    pub steps: usize,
    /// Fine-tune steps after poison injection.
    pub ft_steps: usize,
    /// Fraction of each fine-tune batch drawn from poison pairs.
    pub ft_poison_frac: f32,
    pub init_scale: f32,
}

impl Default for NgcfConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            layers: 2,
            lr: 0.05,
            reg: 1e-4,
            batch: 512,
            steps: 120,
            ft_steps: 12,
            ft_poison_frac: 0.5,
            init_scale: 0.08,
        }
    }
}

/// Neural graph collaborative filtering ranker.
#[derive(Clone)]
pub struct Ngcf {
    cfg: NgcfConfig,
    emb: EmbeddingConfig,
    state: Option<NgcfState>,
}

#[derive(Clone)]
struct NgcfState {
    params: ParamSet,
    emb_table: ParamId,
    /// `(W1, W2)` per propagation layer.
    weights: Vec<(ParamId, ParamId)>,
    /// Normalized adjacency of the latest (possibly poisoned) log.
    laplacian: Arc<Csr>,
    /// Final concatenated embeddings, cached after training for O(dim)
    /// scoring.
    final_emb: Matrix,
}

impl Ngcf {
    pub fn new(cfg: NgcfConfig, emb: EmbeddingConfig) -> Self {
        Self {
            cfg,
            emb,
            state: None,
        }
    }

    fn num_nodes(&self) -> usize {
        (self.emb.user_rows() + self.emb.catalog) as usize
    }

    fn user_node(&self, u: UserId) -> usize {
        self.emb.user_row(u)
    }

    fn item_node(&self, i: ItemId) -> usize {
        self.emb.user_rows() as usize + i as usize
    }

    /// `D^{-1/2} A D^{-1/2}` over the bipartite interaction graph.
    fn laplacian(&self, view: &LogView<'_>) -> Csr {
        let n = self.num_nodes();
        let mut degree = vec![0u32; n];
        let mut edges: Vec<(usize, usize)> = Vec::with_capacity(view.num_interactions());
        for (u, i) in view.interactions() {
            let un = self.user_node(u);
            let inode = self.item_node(i);
            degree[un] += 1;
            degree[inode] += 1;
            edges.push((un, inode));
        }
        let inv_sqrt: Vec<f32> = degree
            .iter()
            .map(|&d| if d == 0 { 0.0 } else { 1.0 / (d as f32).sqrt() })
            .collect();
        let mut triples = Vec::with_capacity(edges.len() * 2);
        for (un, inode) in edges {
            let w = inv_sqrt[un] * inv_sqrt[inode];
            triples.push((un, inode, w));
            triples.push((inode, un, w));
        }
        Csr::from_triples(n, n, &triples)
    }

    /// Builds the propagation graph; returns the concatenated
    /// multi-layer representation node.
    fn propagate(state: &NgcfState, g: &mut Graph<'_>) -> Var {
        let mut e = g.param(state.emb_table);
        let mut all = e;
        for &(w1, w2) in &state.weights {
            let le = g.spmm(Arc::clone(&state.laplacian), e);
            let le_plus_e = g.add(le, e);
            let term1 = g.matmul_param(le_plus_e, w1);
            let inter = g.mul(le, e);
            let term2 = g.matmul_param(inter, w2);
            let summed = g.add(term1, term2);
            e = g.leaky_relu(summed, 0.2);
            all = g.concat_cols(all, e);
        }
        all
    }

    /// One BPR training step over `triples` with a full propagation.
    fn train_step(&mut self, triples: &[(UserId, ItemId, ItemId)], opt: &mut Sgd) {
        let user_nodes: Vec<u32> = triples
            .iter()
            .map(|&(u, _, _)| self.user_node(u) as u32)
            .collect();
        let pos_nodes: Vec<u32> = triples
            .iter()
            .map(|&(_, i, _)| self.item_node(i) as u32)
            .collect();
        let neg_nodes: Vec<u32> = triples
            .iter()
            .map(|&(_, _, j)| self.item_node(j) as u32)
            .collect();
        let reg = self.cfg.reg;
        let state = self.state.as_mut().expect("fitted");
        let mut grads = GradStore::zeros_like(&state.params);
        {
            let mut g = Graph::new(&state.params);
            let all = Self::propagate(state, &mut g);
            let eu = g.gather_var(all, &user_nodes);
            let ei = g.gather_var(all, &pos_nodes);
            let ej = g.gather_var(all, &neg_nodes);
            let diff = g.sub(ei, ej);
            // Per-triple score gap x_ui - x_uj as a (B x 1) column.
            let x = g.row_dot(eu, diff);
            let neg_x = g.scale(x, -1.0);
            let sp = g.softplus(neg_x); // -ln σ(x)
            let loss_main = g.mean_all(sp);
            let l2 = g.sq_sum(eu);
            let l2i = g.sq_sum(ei);
            let l2j = g.sq_sum(ej);
            let l2a = g.add(l2, l2i);
            let l2b = g.add(l2a, l2j);
            let l2s = g.scale(l2b, reg / triples.len() as f32);
            let loss = g.add(loss_main, l2s);
            g.backward(loss, &mut grads);
        }
        opt.step(&mut state.params, &grads);
    }

    /// Recomputes and caches the final embeddings for scoring.
    fn refresh_cache(&mut self) {
        let state = self.state.as_mut().expect("fitted");
        let mut g = Graph::new(&state.params);
        let all = Self::propagate(state, &mut g);
        state.final_emb = g.value(all).clone();
    }

    fn sample_triples(
        &self,
        view: &LogView<'_>,
        n: usize,
        poison_frac: f32,
        rng: &mut StdRng,
    ) -> Vec<(UserId, ItemId, ItemId)> {
        let organic = view.base().num_users();
        let has_poison = !view.poison().is_empty();
        let mut triples = Vec::with_capacity(n);
        for _ in 0..n {
            let from_poison = has_poison && rng.gen::<f32>() < poison_frac;
            let user = if from_poison {
                organic + rng.gen_range(0..view.poison().len()) as UserId
            } else {
                rng.gen_range(0..organic)
            };
            let seq = view.sequence(user);
            if seq.is_empty() {
                continue;
            }
            let pos = seq[rng.gen_range(0..seq.len())];
            let neg = sample_negative(view, user, rng);
            triples.push((user, pos, neg));
        }
        triples
    }
}

impl Ranker for Ngcf {
    fn name(&self) -> &'static str {
        "NGCF"
    }

    fn fit(&mut self, view: &LogView<'_>, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let emb_table = params.add(
            "ngcf_emb",
            Matrix::uniform(
                self.num_nodes(),
                self.cfg.dim,
                self.cfg.init_scale,
                &mut rng,
            ),
        );
        let weights = (0..self.cfg.layers)
            .map(|l| {
                (
                    params.add_xavier(format!("w1.{l}"), self.cfg.dim, self.cfg.dim, &mut rng),
                    params.add_xavier(format!("w2.{l}"), self.cfg.dim, self.cfg.dim, &mut rng),
                )
            })
            .collect();
        let laplacian = Arc::new(self.laplacian(view));
        self.state = Some(NgcfState {
            params,
            emb_table,
            weights,
            laplacian,
            final_emb: Matrix::zeros(0, 0),
        });
        let mut opt = Sgd::new(self.cfg.lr);
        for _ in 0..self.cfg.steps {
            let triples = self.sample_triples(view, self.cfg.batch, 0.0, &mut rng);
            if !triples.is_empty() {
                self.train_step(&triples, &mut opt);
            }
        }
        self.refresh_cache();
    }

    fn fine_tune(&mut self, view: &LogView<'_>, seed: u64) {
        assert!(self.state.is_some(), "Ngcf::fit must run before fine_tune");
        let mut rng = StdRng::seed_from_u64(seed);
        // Poison edges change the propagation graph itself.
        let lap = Arc::new(self.laplacian(view));
        self.state.as_mut().expect("fitted").laplacian = lap;
        let mut opt = Sgd::new(self.cfg.lr);
        for _ in 0..self.cfg.ft_steps {
            let triples =
                self.sample_triples(view, self.cfg.batch, self.cfg.ft_poison_frac, &mut rng);
            if !triples.is_empty() {
                self.train_step(&triples, &mut opt);
            }
        }
        self.refresh_cache();
    }

    fn score(&self, user: UserId, _history: &[ItemId], candidates: &[ItemId]) -> Vec<f32> {
        let state = self
            .state
            .as_ref()
            .expect("Ngcf::fit must run before score");
        let e = &state.final_emb;
        let u_row = e.row_slice(self.user_node(user));
        candidates
            .iter()
            .map(|&c| {
                let i_row = e.row_slice(self.item_node(c));
                u_row.iter().zip(i_row).map(|(a, b)| a * b).sum()
            })
            .collect()
    }

    fn boxed_clone(&self) -> Box<dyn Ranker> {
        Box::new(self.clone())
    }

    fn item_embeddings(&self) -> Option<Matrix> {
        let state = self.state.as_ref()?;
        let e = &state.final_emb;
        if e.rows() == 0 {
            return None;
        }
        let start = self.emb.user_rows() as usize;
        let mut out = Matrix::zeros(self.emb.catalog as usize, e.cols());
        for i in 0..self.emb.catalog as usize {
            out.row_slice_mut(i).copy_from_slice(e.row_slice(start + i));
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;

    fn clustered() -> Dataset {
        let mut histories = Vec::new();
        for u in 0..40u32 {
            let offset = if u < 20 { 0 } else { 10 };
            let h: Vec<u32> = (0..8).map(|t| offset + ((u + t) % 10)).collect();
            histories.push(h);
        }
        Dataset::from_histories("clustered", histories, 20, 2)
    }

    #[test]
    fn learns_cluster_structure() {
        let d = clustered();
        let view = LogView::clean(&d);
        let mut r = Ngcf::new(
            NgcfConfig {
                dim: 8,
                steps: 200,
                ..NgcfConfig::default()
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

    #[test]
    fn poison_edges_reach_target_through_graph() {
        let d = clustered();
        let view = LogView::clean(&d);
        let mut r = Ngcf::new(NgcfConfig::default(), EmbeddingConfig::for_view(&view, 6));
        r.fit(&view, 3);
        let target = 20;
        let before: f32 = (0..10).map(|u| r.score(u, &[], &[target])[0]).sum();
        // Attackers connect the target to cluster-A items.
        let poison: Vec<Vec<ItemId>> = (0..6)
            .map(|a| (0..8).flat_map(|t| [target, (a + t) % 10]).collect())
            .collect();
        let pview = LogView::new(&d, &poison);
        let mut poisoned = r.clone();
        poisoned.fine_tune(&pview, 9);
        let after: f32 = (0..10).map(|u| poisoned.score(u, &[], &[target])[0]).sum();
        assert!(after > before, "before={before} after={after}");
    }

    #[test]
    fn laplacian_rows_norm_bounded() {
        let d = clustered();
        let view = LogView::clean(&d);
        let r = Ngcf::new(NgcfConfig::default(), EmbeddingConfig::for_view(&view, 2));
        let lap = r.laplacian(&view);
        // Row sums of D^{-1/2} A D^{-1/2} are at most sqrt(deg) * ...
        // sanity: all weights positive and <= 1.
        for row in 0..lap.rows() {
            for (_, w) in lap.row_iter(row) {
                assert!(w > 0.0 && w <= 1.0, "weight {w}");
            }
        }
    }
}
