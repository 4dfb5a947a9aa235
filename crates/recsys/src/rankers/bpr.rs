//! BPR (Rendle et al., 2009): Bayesian personalized ranking, paper
//! testbed #4. Optimizes the same latent-factor tables as PMF with a
//! pairwise logistic ranking loss over (user, positive, negative)
//! triples.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::data::{ItemId, LogView, UserId};
use crate::rankers::common::{
    all_pairs, fine_tune_pairs, sample_negative, EmbeddingConfig, MfTables,
};
use crate::rankers::Ranker;

/// BPR hyperparameters.
#[derive(Copy, Clone, Debug)]
pub struct BprConfig {
    pub dim: usize,
    pub lr: f32,
    pub reg: f32,
    pub epochs: usize,
    pub ft_epochs: usize,
    pub ft_replay: usize,
    pub init_scale: f32,
}

impl Default for BprConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            lr: 0.05,
            reg: 0.01,
            epochs: 4,
            ft_epochs: 3,
            ft_replay: 2000,
            init_scale: 0.1,
        }
    }
}

/// Bayesian personalized ranking ranker.
#[derive(Clone, Debug)]
pub struct Bpr {
    cfg: BprConfig,
    emb: EmbeddingConfig,
    tables: Option<MfTables>,
}

impl Bpr {
    pub fn new(cfg: BprConfig, emb: EmbeddingConfig) -> Self {
        Self {
            cfg,
            emb,
            tables: None,
        }
    }

    fn tables(&self) -> &MfTables {
        self.tables.as_ref().expect("Bpr::fit must run before use")
    }

    fn train_pass(&mut self, view: &LogView<'_>, pairs: &[(UserId, ItemId)], rng: &mut StdRng) {
        let cfg = self.cfg;
        let tables = self.tables.as_mut().expect("fitted");
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.shuffle(rng);
        for idx in order {
            let (u, i) = pairs[idx];
            let j = sample_negative(view, u, rng);
            tables.sgd_bpr(u, i, j, cfg.lr, cfg.reg);
        }
    }
}

impl Ranker for Bpr {
    fn name(&self) -> &'static str {
        "BPR"
    }

    fn fit(&mut self, view: &LogView<'_>, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        self.tables = Some(MfTables::init(
            self.emb,
            self.cfg.dim,
            self.cfg.init_scale,
            &mut rng,
        ));
        let pairs = all_pairs(view);
        for _ in 0..self.cfg.epochs {
            self.train_pass(view, &pairs, &mut rng);
        }
    }

    fn fine_tune(&mut self, view: &LogView<'_>, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = self.cfg.init_scale;
        self.tables
            .as_mut()
            .expect("Bpr::fit must run before fine_tune")
            .reset_attacker_rows(scale, &mut rng);
        for _ in 0..self.cfg.ft_epochs {
            let pairs = fine_tune_pairs(view, self.cfg.ft_replay, &mut rng);
            self.train_pass(view, &pairs, &mut rng);
        }
    }

    fn score(&self, user: UserId, _history: &[ItemId], candidates: &[ItemId]) -> Vec<f32> {
        self.tables().predict_many(user, candidates)
    }

    fn boxed_clone(&self) -> Box<dyn Ranker> {
        Box::new(self.clone())
    }

    fn item_embeddings(&self) -> Option<tensor::Matrix> {
        Some(self.tables().item_matrix())
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
        // With a tiny catalog the model memorizes seen items, so judge
        // generalization by comparing *unseen* in-cluster items against
        // out-of-cluster items (dim kept small to force factor sharing).
        let d = clustered();
        let view = LogView::clean(&d);
        let mut r = Bpr::new(
            BprConfig {
                dim: 4,
                epochs: 12,
                ..BprConfig::default()
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
    fn pairwise_update_moves_positive_above_negative() {
        let d = clustered();
        let view = LogView::clean(&d);
        let mut rng = StdRng::seed_from_u64(0);
        let mut tables = MfTables::init(EmbeddingConfig::for_view(&view, 0), 8, 0.1, &mut rng);
        let (u, i, j) = (0, 3, 17);
        let gap_before = tables.predict(u, i) - tables.predict(u, j);
        for _ in 0..50 {
            tables.sgd_bpr(u, i, j, 0.1, 0.0);
        }
        let gap_after = tables.predict(u, i) - tables.predict(u, j);
        assert!(gap_after > gap_before);
        assert!(gap_after > 1.0, "gap {gap_after}");
    }
}
