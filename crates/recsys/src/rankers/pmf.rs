//! PMF (Salakhutdinov & Mnih, 2007): matrix factorization with Gaussian
//! priors, paper testbed #3. Adapted to implicit feedback the standard
//! way — observed clicks are `y = 1`, sampled unobserved items are
//! `y = 0`, squared loss, L2 regularization (the MAP view of the
//! Gaussian priors). Hand-written SGD keeps retraining cheap enough for
//! the thousands of poison evaluations the RL loop needs.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::data::{ItemId, LogView, UserId};
use crate::rankers::common::{
    all_pairs, fine_tune_pairs, sample_negative, EmbeddingConfig, MfTables,
};
use crate::rankers::Ranker;

/// PMF hyperparameters.
#[derive(Copy, Clone, Debug)]
pub struct PmfConfig {
    pub dim: usize,
    pub lr: f32,
    pub reg: f32,
    /// Negatives sampled per positive.
    pub neg_ratio: usize,
    /// Full-fit epochs.
    pub epochs: usize,
    /// Warm-start epochs over poison + replay.
    pub ft_epochs: usize,
    /// Organic interactions replayed per fine-tune epoch.
    pub ft_replay: usize,
    pub init_scale: f32,
}

impl Default for PmfConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            lr: 0.05,
            reg: 0.02,
            neg_ratio: 4,
            epochs: 3,
            ft_epochs: 3,
            ft_replay: 2000,
            init_scale: 0.1,
        }
    }
}

/// Probabilistic matrix factorization ranker.
#[derive(Clone, Debug)]
pub struct Pmf {
    cfg: PmfConfig,
    emb: EmbeddingConfig,
    tables: Option<MfTables>,
}

impl Pmf {
    pub fn new(cfg: PmfConfig, emb: EmbeddingConfig) -> Self {
        Self {
            cfg,
            emb,
            tables: None,
        }
    }

    fn tables(&self) -> &MfTables {
        self.tables.as_ref().expect("Pmf::fit must run before use")
    }

    fn train_pass(&mut self, view: &LogView<'_>, pairs: &[(UserId, ItemId)], rng: &mut StdRng) {
        let cfg = self.cfg;
        let tables = self.tables.as_mut().expect("fitted");
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.shuffle(rng);
        for idx in order {
            let (u, i) = pairs[idx];
            tables.sgd_pointwise(u, i, 1.0, cfg.lr, cfg.reg);
            for _ in 0..cfg.neg_ratio {
                let j = sample_negative(view, u, rng);
                tables.sgd_pointwise(u, j, 0.0, cfg.lr, cfg.reg);
            }
        }
    }
}

impl Ranker for Pmf {
    fn name(&self) -> &'static str {
        "PMF"
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
            .expect("Pmf::fit must run before fine_tune")
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

    /// Two disjoint user clusters with disjoint item tastes: PMF must
    /// learn to score in-cluster items above out-of-cluster items.
    fn clustered() -> Dataset {
        let mut histories = Vec::new();
        for u in 0..40u32 {
            let offset = if u < 20 { 0 } else { 10 };
            let mut h = Vec::new();
            for t in 0..8 {
                h.push(offset + ((u + t) % 10));
            }
            histories.push(h);
        }
        Dataset::from_histories("clustered", histories, 20, 2)
    }

    #[test]
    fn learns_cluster_structure() {
        let d = clustered();
        let view = LogView::clean(&d);
        let mut r = Pmf::new(
            PmfConfig {
                epochs: 10,
                ..PmfConfig::default()
            },
            EmbeddingConfig::for_view(&view, 4),
        );
        r.fit(&view, 7);
        // User 0 lives in cluster A (items 0..10).
        let mut in_cluster = 0.0;
        let mut out_cluster = 0.0;
        for i in 0..10 {
            in_cluster += r.score(0, &[], &[i])[0];
            out_cluster += r.score(0, &[], &[i + 10])[0];
        }
        assert!(
            in_cluster > out_cluster,
            "in={in_cluster} out={out_cluster}"
        );
    }

    #[test]
    fn fit_is_deterministic() {
        let d = clustered();
        let view = LogView::clean(&d);
        let emb = EmbeddingConfig::for_view(&view, 4);
        let mut a = Pmf::new(PmfConfig::default(), emb);
        let mut b = Pmf::new(PmfConfig::default(), emb);
        a.fit(&view, 5);
        b.fit(&view, 5);
        assert_eq!(a.score(3, &[], &[0, 5, 20]), b.score(3, &[], &[0, 5, 20]));
    }

    #[test]
    fn poison_raises_target_score() {
        let d = clustered();
        let view = LogView::clean(&d);
        let mut r = Pmf::new(PmfConfig::default(), EmbeddingConfig::for_view(&view, 4));
        r.fit(&view, 7);
        let target = 20; // first target item
        let before: f32 = (0..10).map(|u| r.score(u, &[], &[target])[0]).sum();
        // Attackers click the target together with cluster-A items.
        let poison: Vec<Vec<ItemId>> = (0..4)
            .map(|a| (0..10).flat_map(|t| [target, (a + t) % 10]).collect())
            .collect();
        let pview = LogView::new(&d, &poison);
        let mut poisoned = r.clone();
        poisoned.fine_tune(&pview, 9);
        let after: f32 = (0..10).map(|u| poisoned.score(u, &[], &[target])[0]).sum();
        assert!(after > before, "before={before} after={after}");
    }
}
