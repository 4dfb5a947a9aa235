//! Shared plumbing for the learned rankers: table sizing, negative
//! sampling, and the replay buffer used by warm-start fine-tuning.

use rand::rngs::StdRng;
use rand::Rng;

use crate::data::{ItemId, LogView, UserId};

/// Sizing information for user/item embedding tables.
///
/// Tables must be allocated once (at `fit` time) yet score logs whose
/// user count grows when attackers are injected, so we reserve
/// `reserve_attackers` extra user rows up front.
#[derive(Copy, Clone, Debug)]
pub struct EmbeddingConfig {
    /// Organic user count at fit time.
    pub base_users: u32,
    /// Extra user rows reserved for injected attacker accounts.
    pub reserve_attackers: u32,
    /// Catalog size `|I| + |I_t|`.
    pub catalog: u32,
    /// Original item count `|I|` (targets occupy `num_items..catalog`).
    pub num_items: u32,
}

impl EmbeddingConfig {
    pub fn for_view(view: &LogView<'_>, reserve_attackers: u32) -> Self {
        Self {
            base_users: view.base().num_users(),
            reserve_attackers,
            catalog: view.catalog(),
            num_items: view.base().num_items(),
        }
    }

    /// Total user rows (organic + reserved).
    pub fn user_rows(&self) -> u32 {
        self.base_users + self.reserve_attackers
    }

    /// Maps a (possibly attacker) user id to its table row.
    ///
    /// # Panics
    /// Panics if more attackers are injected than were reserved.
    pub fn user_row(&self, user: UserId) -> usize {
        assert!(
            user < self.user_rows(),
            "user {user} exceeds reserved rows ({} organic + {} attackers); \
             raise reserve_attackers",
            self.base_users,
            self.reserve_attackers
        );
        user as usize
    }
}

/// A `(user, positive item)` training pair.
pub type Pair = (UserId, ItemId);

/// Collects every interaction of the view into training pairs.
pub fn all_pairs(view: &LogView<'_>) -> Vec<Pair> {
    view.interactions().collect()
}

/// Training pairs for a fine-tune pass: every poison interaction plus
/// `replay` organic interactions sampled uniformly. The poison must be
/// seen together with organic contrast data or the warm model would
/// simply drift.
pub fn fine_tune_pairs(view: &LogView<'_>, replay: usize, rng: &mut StdRng) -> Vec<Pair> {
    let organic_users = view.base().num_users();
    let mut pairs: Vec<Pair> = Vec::new();
    for (a, traj) in view.poison().iter().enumerate() {
        let user = organic_users + a as UserId;
        pairs.extend(traj.iter().map(|&i| (user, i)));
    }
    let base = view.base();
    if base.num_interactions() > 0 {
        for _ in 0..replay {
            let user = rng.gen_range(0..organic_users);
            let seq = base.sequence(user);
            if seq.is_empty() {
                continue;
            }
            let item = seq[rng.gen_range(0..seq.len())];
            pairs.push((user, item));
        }
    }
    pairs
}

/// Samples an *original* item the user has not interacted with in the
/// view. Negatives are drawn from `I` only: realistic samplers pick
/// negatives by popularity / from the training catalog, so brand-new
/// target items (zero organic interactions) are effectively never
/// negative-sampled — which is precisely what lets poison positives on
/// targets go uncontested. Falls back to any original item after a few
/// rejections (dense users).
pub fn sample_negative(view: &LogView<'_>, user: UserId, rng: &mut StdRng) -> ItemId {
    let originals = view.base().num_items();
    let seq = view.sequence(user);
    for _ in 0..8 {
        let item = rng.gen_range(0..originals);
        if !seq.contains(&item) {
            return item;
        }
    }
    rng.gen_range(0..originals)
}

/// Derives a child seed (SplitMix64 step) so components can fan out
/// independent deterministic RNG streams from one experiment seed.
pub fn child_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use rand::SeedableRng;

    fn toy() -> Dataset {
        let histories = (0..10u32)
            .map(|u| vec![u % 5, (u + 1) % 5, (u + 2) % 5, (u + 3) % 5])
            .collect();
        Dataset::from_histories("toy", histories, 5, 2)
    }

    #[test]
    fn user_row_mapping_and_panic() {
        let d = toy();
        let view = LogView::clean(&d);
        let cfg = EmbeddingConfig::for_view(&view, 3);
        assert_eq!(cfg.user_rows(), 13);
        assert_eq!(cfg.user_row(12), 12);
        let result = std::panic::catch_unwind(|| cfg.user_row(13));
        assert!(result.is_err());
    }

    #[test]
    fn fine_tune_pairs_contains_all_poison() {
        let d = toy();
        let poison = vec![vec![5, 0, 5], vec![6, 1]];
        let view = LogView::new(&d, &poison);
        let mut rng = StdRng::seed_from_u64(1);
        let pairs = fine_tune_pairs(&view, 7, &mut rng);
        let poison_pairs: Vec<_> = pairs.iter().filter(|&&(u, _)| u >= d.num_users()).collect();
        assert_eq!(poison_pairs.len(), 5);
        assert_eq!(pairs.len(), 12);
        // Attacker ids map past the organic users.
        assert!(poison_pairs.iter().all(|&&(u, _)| u == 10 || u == 11));
    }

    #[test]
    fn negative_sampling_avoids_history() {
        let d = toy();
        let view = LogView::clean(&d);
        let mut rng = StdRng::seed_from_u64(2);
        // User 0 history is [0,1]; the sampler should essentially
        // always dodge it and must never emit a target item.
        let mut dodged = 0;
        for _ in 0..100 {
            let n = sample_negative(&view, 0, &mut rng);
            assert!(n < d.num_items(), "negative {n} is a target item");
            if !view.sequence(0).contains(&n) {
                dodged += 1;
            }
        }
        assert!(dodged > 95);
    }

    /// `predict` as one indexed scalar loop: the reference that
    /// `predict`, `predict_many` and the SGD steps must match bit for bit.
    fn predict_reference(t: &MfTables, u: UserId, i: ItemId) -> f32 {
        let dim = t.dim;
        let (r, ii) = (u as usize, i as usize);
        let mut acc = t.item_bias[ii];
        for d in 0..dim {
            acc += t.user[r * dim + d] * t.item[ii * dim + d];
        }
        acc
    }

    /// The indexed `sgd_pointwise` loop, the reference for the sliced one.
    fn sgd_pointwise_reference(t: &mut MfTables, u: UserId, i: ItemId, y: f32, lr: f32, reg: f32) {
        let err = predict_reference(t, u, i) - y;
        let (r, ii) = (u as usize, i as usize);
        let dim = t.dim;
        for d in 0..dim {
            let pu = t.user[r * dim + d];
            let qi = t.item[ii * dim + d];
            t.user[r * dim + d] -= lr * (err * qi + reg * pu);
            t.item[ii * dim + d] -= lr * (err * pu + reg * qi);
        }
        t.item_bias[ii] -= lr * (err + reg * t.item_bias[ii]);
    }

    /// The indexed `sgd_bpr` loop, the reference for the sliced one.
    fn sgd_bpr_reference(t: &mut MfTables, u: UserId, i: ItemId, j: ItemId, lr: f32, reg: f32) {
        let x = predict_reference(t, u, i) - predict_reference(t, u, j);
        let s = tensor::stable_sigmoid(-x);
        let (r, ii, jj) = (u as usize, i as usize, j as usize);
        let dim = t.dim;
        for d in 0..dim {
            let pu = t.user[r * dim + d];
            let qi = t.item[ii * dim + d];
            let qj = t.item[jj * dim + d];
            t.user[r * dim + d] += lr * (s * (qi - qj) - reg * pu);
            t.item[ii * dim + d] += lr * (s * pu - reg * qi);
            t.item[jj * dim + d] += lr * (-s * pu - reg * qj);
        }
        t.item_bias[ii] += lr * (s - reg * t.item_bias[ii]);
        t.item_bias[jj] += lr * (-s - reg * t.item_bias[jj]);
    }

    const KERNEL_CATALOG: u32 = 24;

    /// Tables of `dim` columns with uniform entries, item biases set, and
    /// (when `specials`) some entries replaced by `-0.0`, ±inf or NaN.
    fn kernel_tables(dim: usize, specials: bool, seed: u64) -> MfTables {
        let cfg = EmbeddingConfig {
            base_users: 3,
            reserve_attackers: 1,
            catalog: KERNEL_CATALOG,
            num_items: KERNEL_CATALOG - 2,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = MfTables::init(cfg, dim, 0.5, &mut rng);
        for b in &mut t.item_bias {
            *b = rng.gen_range(-0.5..=0.5);
        }
        if specials {
            let values = [-0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN];
            for (n, &v) in values.iter().cycle().take(12).enumerate() {
                let table = match n % 3 {
                    0 => &mut t.user,
                    1 => &mut t.item,
                    _ => &mut t.item_bias,
                };
                let at = rng.gen_range(0..table.len());
                table[at] = v;
            }
        }
        t
    }

    /// Equal bit for bit, except that any NaN matches any NaN.
    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                if x.is_nan() || y.is_nan() {
                    x.is_nan() && y.is_nan()
                } else {
                    x.to_bits() == y.to_bits()
                }
            })
    }

    fn same_tables(a: &MfTables, b: &MfTables) -> bool {
        same_bits(&a.user, &b.user)
            && same_bits(&a.item, &b.item)
            && same_bits(&a.item_bias, &b.item_bias)
    }

    #[test]
    fn predict_many_matches_predict_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(11);
        for dim in [1, 5, 16, 19] {
            for specials in [false, true] {
                let t = kernel_tables(dim, specials, dim as u64);
                for u in 0..t.cfg().user_rows() {
                    for n in 0..=17 {
                        let candidates: Vec<ItemId> =
                            (0..n).map(|_| rng.gen_range(0..KERNEL_CATALOG)).collect();
                        let want: Vec<f32> = candidates
                            .iter()
                            .map(|&c| predict_reference(&t, u, c))
                            .collect();
                        let one_by_one: Vec<f32> =
                            candidates.iter().map(|&c| t.predict(u, c)).collect();
                        let got = t.predict_many(u, &candidates);
                        assert!(same_bits(&one_by_one, &want), "predict dim={dim} n={n}");
                        assert!(same_bits(&got, &want), "predict_many dim={dim} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn sgd_bpr_matches_the_indexed_loop_bit_for_bit() {
        // i < j, i > j and i == j (the sampler's fallback draw), twice
        // each so the second step reads the first step's writes.
        let triples = [
            (0, 3, 17),
            (1, 20, 2),
            (2, 5, 5),
            (3, 23, 0),
            (0, 3, 17),
            (2, 5, 5),
        ];
        for dim in [1, 5, 16, 19] {
            for specials in [false, true] {
                let mut got = kernel_tables(dim, specials, 40 + dim as u64);
                let mut want = got.clone();
                for &(u, i, j) in &triples {
                    got.sgd_bpr(u, i, j, 0.05, 0.01);
                    sgd_bpr_reference(&mut want, u, i, j, 0.05, 0.01);
                    assert!(same_tables(&got, &want), "dim={dim} ({u}, {i}, {j})");
                }
            }
        }
    }

    #[test]
    fn sgd_pointwise_matches_the_indexed_loop_bit_for_bit() {
        let steps = [
            (0, 3, 1.0),
            (1, 20, 0.0),
            (3, 23, 1.0),
            (0, 3, 0.0),
            (2, 0, 0.0),
        ];
        for dim in [1, 5, 16, 19] {
            for specials in [false, true] {
                let mut got = kernel_tables(dim, specials, 80 + dim as u64);
                let mut want = got.clone();
                for &(u, i, y) in &steps {
                    got.sgd_pointwise(u, i, y, 0.05, 0.02);
                    sgd_pointwise_reference(&mut want, u, i, y, 0.05, 0.02);
                    assert!(same_tables(&got, &want), "dim={dim} ({u}, {i}, {y})");
                }
            }
        }
    }

    #[test]
    fn child_seed_streams_differ() {
        let a = child_seed(42, 0);
        let b = child_seed(42, 1);
        let c = child_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, child_seed(42, 0));
    }
}

/// Flat user/item latent-factor tables shared by the matrix-factorization
/// rankers (PMF, BPR). Stored as contiguous `Vec<f32>` for cache-friendly
/// hand-written SGD.
#[derive(Clone, Debug)]
pub struct MfTables {
    pub dim: usize,
    cfg: EmbeddingConfig,
    user: Vec<f32>,
    item: Vec<f32>,
    /// Per-item bias, one entry per catalog item. `init` zeroes it and
    /// both SGD steps train it, so PMF and BPR alike score
    /// `p_u · q_i + b_i`.
    pub item_bias: Vec<f32>,
}

impl MfTables {
    /// Fresh tables with uniform(-scale, scale) entries.
    pub fn init(cfg: EmbeddingConfig, dim: usize, scale: f32, rng: &mut StdRng) -> Self {
        let user_len = cfg.user_rows() as usize * dim;
        let item_len = cfg.catalog as usize * dim;
        Self {
            dim,
            cfg,
            user: (0..user_len)
                .map(|_| rng.gen_range(-scale..=scale))
                .collect(),
            item: (0..item_len)
                .map(|_| rng.gen_range(-scale..=scale))
                .collect(),
            item_bias: vec![0.0; cfg.catalog as usize],
        }
    }

    pub fn cfg(&self) -> EmbeddingConfig {
        self.cfg
    }

    #[inline]
    pub fn user_vec(&self, u: UserId) -> &[f32] {
        let r = self.cfg.user_row(u);
        &self.user[r * self.dim..(r + 1) * self.dim]
    }

    #[inline]
    pub fn item_vec(&self, i: ItemId) -> &[f32] {
        let i = i as usize;
        &self.item[i * self.dim..(i + 1) * self.dim]
    }

    /// The full item-factor table as a matrix (`catalog x dim`).
    pub fn item_matrix(&self) -> tensor::Matrix {
        tensor::Matrix::from_vec(self.cfg.catalog as usize, self.dim, self.item.clone())
    }

    /// Predicted preference `p_u · q_i + b_i`: the bias, then
    /// `p[d] * q[d]` added for `d` ascending.
    #[inline]
    pub fn predict(&self, u: UserId, i: ItemId) -> f32 {
        let p = self.user_vec(u);
        let q = self.item_vec(i);
        let mut acc = self.item_bias[i as usize];
        for (a, b) in p.iter().zip(q) {
            acc += a * b;
        }
        acc
    }

    /// `predict(u, c)` for every candidate, bit for bit. Candidates go
    /// in blocks of `PREDICT_LANES`, one accumulator each, so the
    /// block's dependent add chains overlap instead of running one
    /// after another; each chain is exactly `predict`'s. The remainder
    /// goes through `predict`.
    pub fn predict_many(&self, u: UserId, candidates: &[ItemId]) -> Vec<f32> {
        let p = self.user_vec(u);
        let dim = p.len();
        let mut out = Vec::with_capacity(candidates.len());
        let mut blocks = candidates.chunks_exact(PREDICT_LANES);
        for block in &mut blocks {
            // Rows sliced to `p`'s length, so `rows[k][d]` needs no
            // bounds check inside the loop.
            let rows: [&[f32]; PREDICT_LANES] =
                std::array::from_fn(|k| &self.item_vec(block[k])[..dim]);
            let mut acc: [f32; PREDICT_LANES] =
                std::array::from_fn(|k| self.item_bias[block[k] as usize]);
            for (d, &pd) in p.iter().enumerate() {
                let q: [f32; PREDICT_LANES] = std::array::from_fn(|k| rows[k][d]);
                for (acc, q) in acc.iter_mut().zip(q) {
                    *acc += pd * q;
                }
            }
            out.extend_from_slice(&acc);
        }
        out.extend(blocks.remainder().iter().map(|&c| self.predict(u, c)));
        out
    }

    /// Re-randomizes the reserved attacker rows (called at the start of
    /// every fine-tune so stale attacker state never leaks between
    /// attack evaluations).
    pub fn reset_attacker_rows(&mut self, scale: f32, rng: &mut StdRng) {
        let start = self.cfg.base_users as usize * self.dim;
        for x in &mut self.user[start..] {
            *x = rng.gen_range(-scale..=scale);
        }
    }

    /// One SGD step of squared-error loss `(pred - y)^2` with L2 `reg`.
    /// The user row and the item row live in different tables, so the
    /// loop runs over two disjoint slices and vectorizes; each element
    /// reads only its own pre-update `pu` and `qi`.
    pub fn sgd_pointwise(&mut self, u: UserId, i: ItemId, y: f32, lr: f32, reg: f32) {
        let err = self.predict(u, i) - y;
        let r = self.cfg.user_row(u);
        let ii = i as usize;
        let dim = self.dim;
        let p = &mut self.user[r * dim..(r + 1) * dim];
        let q = &mut self.item[ii * dim..(ii + 1) * dim];
        for (p, q) in p.iter_mut().zip(q) {
            let (pu, qi) = (*p, *q);
            *p -= lr * (err * qi + reg * pu);
            *q -= lr * (err * pu + reg * qi);
        }
        let b = &mut self.item_bias[ii];
        *b -= lr * (err + reg * *b);
    }

    /// One SGD step of the BPR pairwise loss `-ln σ(x_ui - x_uj)`.
    ///
    /// For `i != j` the user row and the two item rows are disjoint
    /// slices updated in one vectorizable loop. `i == j` happens (the
    /// negative sampler's fallback draw may return the positive), and
    /// then the `j` update must read the value the `i` update just
    /// wrote, so that case keeps the element-by-element loop.
    pub fn sgd_bpr(&mut self, u: UserId, i: ItemId, j: ItemId, lr: f32, reg: f32) {
        let x = self.predict(u, i) - self.predict(u, j);
        // d/dx [-ln σ(x)] = -(1 - σ(x)) = -σ(-x)
        let s = tensor::stable_sigmoid(-x);
        let r = self.cfg.user_row(u);
        let (ii, jj) = (i as usize, j as usize);
        let dim = self.dim;
        let p = &mut self.user[r * dim..(r + 1) * dim];
        if ii == jj {
            let q = &mut self.item[ii * dim..(ii + 1) * dim];
            for d in 0..dim {
                let (pu, qi, qj) = (p[d], q[d], q[d]);
                p[d] += lr * (s * (qi - qj) - reg * pu);
                q[d] += lr * (s * pu - reg * qi);
                q[d] += lr * (-s * pu - reg * qj);
            }
        } else {
            let (qi, qj) = two_rows_mut(&mut self.item, ii, jj, dim);
            for ((p, a), b) in p.iter_mut().zip(qi).zip(qj) {
                let (pu, qi, qj) = (*p, *a, *b);
                *p += lr * (s * (qi - qj) - reg * pu);
                *a += lr * (s * pu - reg * qi);
                *b += lr * (-s * pu - reg * qj);
            }
        }
        self.item_bias[ii] += lr * (s - reg * self.item_bias[ii]);
        self.item_bias[jj] += lr * (-s - reg * self.item_bias[jj]);
    }
}

/// Candidates scored together by `MfTables::predict_many`.
const PREDICT_LANES: usize = 8;

/// Rows `i` and `j` (`i != j`) of a row-major table with `dim` columns,
/// borrowed mutably at once.
fn two_rows_mut(table: &mut [f32], i: usize, j: usize, dim: usize) -> (&mut [f32], &mut [f32]) {
    debug_assert_ne!(i, j);
    let (lo, hi) = table.split_at_mut(i.max(j) * dim);
    let (low_row, high_row) = (&mut lo[i.min(j) * dim..][..dim], &mut hi[..dim]);
    if i < j {
        (low_row, high_row)
    } else {
        (high_row, low_row)
    }
}
