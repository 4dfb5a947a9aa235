//! First-order optimizers over a [`ParamSet`] + [`GradStore`] pair.

use crate::matrix::Matrix;
use crate::params::{GradStore, ParamSet};

/// Common interface: consume the accumulated gradients and update the
/// parameters in place. Implementations do **not** zero the gradients;
/// call [`GradStore::zero`] afterwards.
pub trait Optimizer {
    fn step(&mut self, params: &mut ParamSet, grads: &GradStore);
    /// Current learning rate.
    fn learning_rate(&self) -> f32;
    /// Adjusts the learning rate (e.g. for decay schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Plain stochastic gradient descent with optional L2 weight decay.
#[derive(Clone, Debug)]
pub struct Sgd {
    lr: f32,
    weight_decay: f32,
}

impl Sgd {
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            weight_decay: 0.0,
        }
    }

    pub fn with_weight_decay(lr: f32, weight_decay: f32) -> Self {
        Self { lr, weight_decay }
    }
}

impl Optimizer for Sgd {
    /// `p += (-lr)·g` over every entry, or, where the gradient store
    /// tracks which rows may be non-zero, over those rows only. Skipping
    /// a row is exact: an untracked row holds `+0.0`, and for a finite
    /// `lr` with its sign bit clear, `(-lr)·(+0.0)` is `-0.0`, and
    /// `p + (-0.0)` is `p` bit for bit (`-0.0`, ±inf and NaN included;
    /// only a signalling NaN, which no float op produces, would come
    /// back quieted). Every entry is updated independently, so the row
    /// order cannot matter either.
    fn step(&mut self, params: &mut ParamSet, grads: &GradStore) {
        assert_eq!(params.len(), grads.len(), "param/grad arity mismatch");
        let alpha = -self.lr;
        let rows_exact = self.lr.is_finite() && self.lr.is_sign_positive();
        for i in 0..params.len() {
            let id = crate::ParamId(i);
            let g = grads.get(id);
            let p = params.get_mut(id);
            assert_eq!(p.shape(), g.shape(), "param/grad shape mismatch");
            if self.weight_decay > 0.0 {
                let wd = self.weight_decay;
                let lr = self.lr;
                for (pv, gv) in p.data_mut().iter_mut().zip(g.data()) {
                    *pv -= lr * (gv + wd * *pv);
                }
            } else if let Some(rows) = grads.touched_rows(id).filter(|_| rows_exact) {
                for &r in rows {
                    let r = r as usize;
                    for (pv, &gv) in p.row_slice_mut(r).iter_mut().zip(g.row_slice(r)) {
                        *pv += alpha * gv;
                    }
                }
            } else {
                p.axpy(alpha, g);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba, 2015) with bias correction.
#[derive(Clone, Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Standard betas `(0.9, 0.999)` and `eps = 1e-8`.
    pub fn new(params: &ParamSet, lr: f32) -> Self {
        let zeros: Vec<Matrix> = params
            .iter()
            .map(|(_, m)| Matrix::zeros(m.rows(), m.cols()))
            .collect();
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: zeros.clone(),
            v: zeros,
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Whether the moment estimates line up with `params` slot-for-slot
    /// (same arity, same shapes) — the resume-time validity check that
    /// turns a would-be mid-training panic into a loud decode error.
    pub fn tracks(&self, params: &ParamSet) -> bool {
        self.m.len() == params.len()
            && params
                .iter()
                .all(|(id, p)| self.m[id.0].shape() == p.shape())
    }
}

/// Checkpoint codec: hyperparameters, step counter, and both moment
/// estimate sets, bit-exactly. Decoding validates that `m` and `v`
/// agree in arity and per-slot shape, so a resumed optimizer can never
/// silently pair mismatched moments.
impl crate::wire::Codec for Adam {
    fn encode(&self, w: &mut crate::wire::Writer) {
        w.put_f32(self.lr);
        w.put_f32(self.beta1);
        w.put_f32(self.beta2);
        w.put_f32(self.eps);
        w.put_u64(self.t);
        w.put_u64(self.m.len() as u64);
        for matrix in self.m.iter().chain(self.v.iter()) {
            matrix.encode(w);
        }
    }

    fn decode(r: &mut crate::wire::Reader) -> Result<Self, crate::wire::WireError> {
        let lr = r.get_f32("adam lr")?;
        let beta1 = r.get_f32("adam beta1")?;
        let beta2 = r.get_f32("adam beta2")?;
        let eps = r.get_f32("adam eps")?;
        let t = r.get_u64("adam step counter")?;
        // Each moment pair is at least two empty matrices (24 B each).
        let n = r.get_len(48, "adam moment count")?;
        let m: Vec<Matrix> = (0..n)
            .map(|_| Matrix::decode(r))
            .collect::<Result<_, _>>()?;
        let v: Vec<Matrix> = (0..n)
            .map(|_| Matrix::decode(r))
            .collect::<Result<_, _>>()?;
        for (i, (mm, vv)) in m.iter().zip(&v).enumerate() {
            if mm.shape() != vv.shape() {
                return Err(crate::wire::WireError::new(
                    0,
                    format!(
                        "adam moment {i}: first-moment shape {:?} != second-moment shape {:?}",
                        mm.shape(),
                        vv.shape()
                    ),
                ));
            }
        }
        Ok(Self {
            lr,
            beta1,
            beta2,
            eps,
            t,
            m,
            v,
        })
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamSet, grads: &GradStore) {
        assert_eq!(
            params.len(),
            self.m.len(),
            "Adam built for a different ParamSet"
        );
        assert_eq!(params.len(), grads.len(), "param/grad arity mismatch");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let id = crate::ParamId(i);
            let g = grads.get(id);
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            let p = params.get_mut(id);
            for ((pv, gv), (mv, vv)) in p
                .data_mut()
                .iter_mut()
                .zip(g.data())
                .zip(m.data_mut().iter_mut().zip(v.data_mut().iter_mut()))
            {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
                let m_hat = *mv / b1t;
                let v_hat = *vv / b2t;
                *pv -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, ParamSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Minimizing (w - 3)^2 must converge to w = 3 for both optimizers.
    fn converges(opt: &mut dyn Optimizer, params: &mut ParamSet, w: crate::ParamId) -> f32 {
        for _ in 0..500 {
            let mut grads = GradStore::zeros_like(params);
            let mut g = Graph::new(params);
            let wv = g.param(w);
            let shifted = g.add_scalar(wv, -3.0);
            let loss = g.sq_sum(shifted);
            g.backward(loss, &mut grads);
            opt.step(params, &grads);
        }
        params.get(w).at(0, 0)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut params = ParamSet::new();
        let w = params.add("w", crate::Matrix::uniform(1, 1, 1.0, &mut rng));
        let mut opt = Sgd::new(0.1);
        let final_w = converges(&mut opt, &mut params, w);
        assert!((final_w - 3.0).abs() < 1e-3, "got {final_w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut params = ParamSet::new();
        let w = params.add("w", crate::Matrix::uniform(1, 1, 1.0, &mut rng));
        let mut opt = Adam::new(&params, 0.05);
        let final_w = converges(&mut opt, &mut params, w);
        assert!((final_w - 3.0).abs() < 1e-2, "got {final_w}");
    }

    #[test]
    fn adam_checkpoint_round_trip_continues_identically() {
        use crate::wire::Codec;
        let mut rng = StdRng::seed_from_u64(7);
        let mut params = ParamSet::new();
        let w = params.add("w", crate::Matrix::uniform(3, 2, 1.0, &mut rng));
        let mut opt = Adam::new(&params, 0.05);
        let grad_step = |opt: &mut Adam, params: &mut ParamSet, scale: f32| {
            let mut grads = GradStore::zeros_like(params);
            for (i, g) in grads.get_mut(w).data_mut().iter_mut().enumerate() {
                *g = scale * (i as f32 - 2.5);
            }
            opt.step(params, &grads);
        };
        for i in 0..5 {
            grad_step(&mut opt, &mut params, 0.1 * (i + 1) as f32);
        }

        let mut resumed_opt = Adam::from_bytes(&opt.to_bytes()).expect("decodes");
        let mut resumed_params = params.clone();
        assert_eq!(resumed_opt.steps(), 5);
        for i in 0..5 {
            let scale = -0.2 * (i + 1) as f32;
            grad_step(&mut opt, &mut params, scale);
            grad_step(&mut resumed_opt, &mut resumed_params, scale);
        }
        for (a, b) in params
            .get(w)
            .data()
            .iter()
            .zip(resumed_params.get(w).data())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "resumed Adam diverged");
        }
    }

    #[test]
    fn sgd_weight_decay_shrinks_weights() {
        let mut params = ParamSet::new();
        let w = params.add("w", crate::Matrix::full(1, 1, 1.0));
        let grads = GradStore::zeros_like(&params);
        let mut opt = Sgd::with_weight_decay(0.1, 0.5);
        opt.step(&mut params, &grads);
        // w -= lr * wd * w => 1 - 0.05
        assert!((params.get(w).at(0, 0) - 0.95).abs() < 1e-6);
    }
}

/// The row-sparse `Sgd::step` + `GradStore::zero` against the dense
/// passes they replace, bit for bit, over seeded graphs.
#[cfg(test)]
mod row_sparse_equivalence {
    use super::*;
    use crate::{Graph, ParamId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const EMB_ROWS: usize = 40;
    const SIDE_ROWS: usize = 24;

    /// The dense update: every entry of every parameter.
    fn dense_step(params: &mut ParamSet, grads: &GradStore, lr: f32, weight_decay: f32) {
        for i in 0..params.len() {
            let id = ParamId(i);
            let g = grads.get(id);
            let p = params.get_mut(id);
            if weight_decay > 0.0 {
                for (pv, gv) in p.data_mut().iter_mut().zip(g.data()) {
                    *pv -= lr * (gv + weight_decay * *pv);
                }
            } else {
                p.axpy(-lr, g);
            }
        }
    }

    /// The dense reset: every entry of every gradient.
    fn dense_zero(grads: &mut GradStore) {
        for i in 0..grads.len() {
            grads.get_mut(ParamId(i)).fill_zero();
        }
    }

    fn assert_bits(a: &[&Matrix], b: &[&Matrix], what: &str) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            for (j, (u, v)) in x.data().iter().zip(y.data()).enumerate() {
                assert_eq!(u.to_bits(), v.to_bits(), "{what}: param {i} entry {j}");
            }
        }
    }

    fn param_mats(p: &ParamSet) -> Vec<&Matrix> {
        p.iter().map(|(_, m)| m).collect()
    }

    fn grad_mats(g: &GradStore) -> Vec<&Matrix> {
        (0..g.len()).map(|i| g.get(ParamId(i))).collect()
    }

    /// Gather indices into the embedding table: a forced duplicate in
    /// the narrow case, a consecutive block every fourth step, and a
    /// wide draw that usually reaches the quarter-of-the-table dense
    /// fallback.
    fn indices(rng: &mut StdRng, step: usize, wide: bool) -> Vec<u32> {
        let k = if wide {
            rng.gen_range(EMB_ROWS / 4..EMB_ROWS)
        } else {
            rng.gen_range(1..EMB_ROWS / 8)
        };
        if step % 4 == 3 {
            let start = rng.gen_range(0..=EMB_ROWS - k) as u32;
            return (start..start + k as u32).collect();
        }
        let mut idx: Vec<u32> = (0..k).map(|_| rng.gen_range(0..EMB_ROWS as u32)).collect();
        idx.push(idx[0]);
        idx
    }

    /// One forward + backward (two sweeps into the same store) plus the
    /// caller-side writes a step may add, applied identically to both
    /// stores. Returns whether the embedding gradient must now count as
    /// dense: a quarter of its rows gathered, or a dense write.
    fn accumulate(
        params: &ParamSet,
        grads: &mut GradStore,
        ids: [ParamId; 3],
        rng: &mut StdRng,
        step: usize,
        wide: bool,
    ) -> bool {
        let [emb, side, w] = ids;
        let mut gathered = [false; EMB_ROWS];
        let mut dense_write = step.is_multiple_of(5);
        for sweep in 0..2 {
            let idx = indices(rng, step + sweep, wide);
            for &i in &idx {
                gathered[i as usize] = true;
            }
            let side_idx: Vec<u32> = (0..3).map(|_| rng.gen_range(0..SIDE_ROWS as u32)).collect();
            let mut g = Graph::new(params);
            let x = g.gather(emb, &idx);
            let h = g.matmul_param(x, w);
            let h = g.tanh(h);
            let mut loss = g.sq_sum(h);
            if step.is_multiple_of(5) {
                // The gathered table is also written densely in the same
                // sweep.
                let t = g.matmul_t_param(x, emb);
                let t = g.sq_sum(t);
                loss = g.add(loss, t);
            }
            let s = g.gather(side, &side_idx);
            let s = g.sum_all(s);
            loss = g.add(loss, s);
            g.backward_weighted(loss, 0.5 + sweep as f32, grads);
        }
        match step % 7 {
            1 => {
                // A caller's dense write to an untracked row.
                grads.get_mut(emb).row_slice_mut(EMB_ROWS - 1)[0] += 0.25;
                dense_write = true;
            }
            2 => {
                // Signed zeros and non-finite gradient entries.
                let row = rng.gen_range(0..SIDE_ROWS as u32);
                let g = grads.rows_mut(side, &[row]);
                g.row_slice_mut(row as usize)
                    .copy_from_slice(&[-0.0, f32::NAN]);
                let row = (row + 1) % SIDE_ROWS as u32;
                let g = grads.rows_mut(side, &[row, row]);
                g.row_slice_mut(row as usize)
                    .copy_from_slice(&[f32::INFINITY, f32::NEG_INFINITY]);
            }
            4 => {
                grads.clip_global_norm(0.5);
            }
            6 if step.is_multiple_of(3) => {
                // A negative factor turns the untracked +0.0 rows into
                // -0.0; the store must stop trusting its row list.
                dense_write |= grads.clip_global_norm(-0.5) > 0.0;
            }
            _ => {}
        }
        dense_write || gathered.iter().filter(|&&g| g).count() * 4 >= EMB_ROWS
    }

    fn run(lr: f32, weight_decay: f32, seed: u64) -> (usize, usize) {
        // These graphs run MatMul and MatMulT, whose calls the profile
        // test counts exactly.
        let _profiled = crate::profile::PROFILED_OPS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let mut emb_init = Matrix::uniform(EMB_ROWS, 3, 0.5, &mut rng);
        // Signed zeros in rows no narrow step is likely to touch.
        for r in (0..EMB_ROWS).step_by(5) {
            emb_init.row_slice_mut(r).fill(-0.0);
        }
        let emb = params.add("emb", emb_init);
        let side = params.add("side", Matrix::full(SIDE_ROWS, 2, -0.0));
        let w = params.add("w", Matrix::uniform(3, 2, 0.5, &mut rng));
        let ids = [emb, side, w];

        let mut sparse_params = params.clone();
        let mut dense_params = params;
        let mut sparse_grads = GradStore::zeros_like(&sparse_params);
        let mut dense_grads = GradStore::zeros_like(&dense_params);
        let mut opt = Sgd::with_weight_decay(lr, weight_decay);
        let (mut sparse_steps, mut dense_steps) = (0, 0);
        for step in 0..60 {
            let wide = (step / 3) % 2 == 1;
            let mut rng_b = rng.clone();
            let dense = accumulate(&sparse_params, &mut sparse_grads, ids, &mut rng, step, wide);
            accumulate(&dense_params, &mut dense_grads, ids, &mut rng_b, step, wide);
            assert_bits(
                &grad_mats(&sparse_grads),
                &grad_mats(&dense_grads),
                &format!("grads after backward, step {step}"),
            );
            assert_eq!(
                sparse_grads.touched_rows(emb).is_none(),
                dense,
                "dense fallback, step {step}"
            );
            if dense {
                dense_steps += 1;
            } else {
                sparse_steps += 1;
            }
            opt.step(&mut sparse_params, &sparse_grads);
            dense_step(&mut dense_params, &dense_grads, lr, weight_decay);
            assert_bits(
                &param_mats(&sparse_params),
                &param_mats(&dense_params),
                &format!("params after step {step}"),
            );
            sparse_grads.zero();
            dense_zero(&mut dense_grads);
            assert_bits(
                &grad_mats(&sparse_grads),
                &grad_mats(&dense_grads),
                &format!("grads after zero, step {step}"),
            );
        }
        (sparse_steps, dense_steps)
    }

    #[test]
    fn row_sparse_sgd_matches_dense_bit_for_bit() {
        for seed in 0..4 {
            let (sparse, dense) = run(0.05, 0.0, seed);
            // The touched share crosses the fallback in both directions.
            assert!(sparse >= 10 && dense >= 10, "sparse {sparse} dense {dense}");
        }
    }

    #[test]
    fn every_learning_rate_matches_dense() {
        // For a negative, -0.0 or non-finite lr, (-lr)·(+0.0) is +0.0 or
        // NaN, which would change -0.0 params in untracked rows; the
        // dense pass must run instead. +0.0 keeps the row-sparse path.
        for lr in [0.0, -0.0, -0.05, f32::INFINITY, f32::NAN] {
            run(lr, 0.0, 7);
        }
    }

    #[test]
    fn weight_decay_stays_dense() {
        run(0.05, 0.01, 11);
    }
}
