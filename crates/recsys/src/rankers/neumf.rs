//! NeuMF (He et al., 2017): neural collaborative filtering, paper
//! testbed #5. Fuses a generalized-matrix-factorization branch
//! (elementwise product of user/item embeddings) with an MLP branch
//! (concatenated embeddings through ReLU layers), trained with binary
//! cross-entropy on sampled negatives.
//!
//! Scoring and training run without the tape. One forward serves
//! [`Ranker::score`] and the train step, and the train step's backward
//! and SGD replay the tape's arithmetic op by op, so the parameters
//! reach the bits the tape (`logits` + `bce_with_logits` + `backward` +
//! `Sgd::step`, the oracle in the tests) reaches (DESIGN.md §5g).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use tensor::nn::{Activation, Linear, Mlp};
use tensor::{kernel, stable_sigmoid, Matrix, ParamId, ParamSet};

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

/// One SGD batch: run `u` pairs user row `users[u]` with
/// `items[u * run..][..run]`, its positive first, then its negatives.
struct Batch {
    users: Vec<u32>,
    items: Vec<u32>,
    run: usize,
}

impl Batch {
    /// The BCE target of batch row `r`.
    fn label(&self, r: usize) -> f32 {
        if r.is_multiple_of(self.run) {
            1.0
        } else {
            0.0
        }
    }
}

/// How a train pass applies one batch with learning rate `lr`:
/// [`train_batch`], or the tape oracle in the tests.
type Step = fn(&mut NeuMfState, f32, &Batch, &mut Scratch);

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

    fn fit_with(&mut self, view: &LogView<'_>, seed: u64, step: Step) {
        let mut rng = StdRng::seed_from_u64(seed);
        self.state = Some(self.init_state(&mut rng));
        let pairs = all_pairs(view);
        for _ in 0..self.cfg.epochs {
            self.train_pass(view, &pairs, &mut rng, step);
        }
    }

    fn fine_tune_with(&mut self, view: &LogView<'_>, seed: u64, step: Step) {
        assert!(self.state.is_some(), "NeuMf::fit must run before fine_tune");
        let mut rng = StdRng::seed_from_u64(seed);
        self.reset_attacker_rows(&mut rng);
        for _ in 0..self.cfg.ft_epochs {
            let pairs = fine_tune_pairs(view, self.cfg.ft_replay, &mut rng);
            self.train_pass(view, &pairs, &mut rng, step);
        }
    }

    /// One shuffled epoch over `pairs`, each with `neg_ratio` sampled
    /// negatives, in batches of at least `batch` rows (whole runs). An
    /// empty remainder takes no step.
    fn train_pass(
        &mut self,
        view: &LogView<'_>,
        pairs: &[(UserId, ItemId)],
        rng: &mut StdRng,
        step: Step,
    ) {
        let cfg = self.cfg;
        let emb = self.emb;
        let state = self.state.as_mut().expect("fitted");
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.shuffle(rng);

        let run = 1 + cfg.neg_ratio;
        let mut batch = Batch {
            users: Vec::with_capacity(cfg.batch / run + 1),
            items: Vec::with_capacity(cfg.batch + run),
            run,
        };
        let mut scratch = Scratch::new(state);
        for idx in order {
            let (u, i) = pairs[idx];
            batch.users.push(emb.user_row(u) as u32);
            batch.items.push(i);
            for _ in 0..cfg.neg_ratio {
                batch.items.push(sample_negative(view, u, rng));
            }
            if batch.items.len() >= cfg.batch {
                step(state, cfg.lr, &batch, &mut scratch);
                batch.users.clear();
                batch.items.clear();
            }
        }
        if !batch.users.is_empty() {
            step(state, cfg.lr, &batch, &mut scratch);
        }
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

/// The activations of one forward pass over `n` rows, row-major `n x
/// width` unless named `_t` (the `width x n` transpose). `logits` is
/// the output; the rest is what the backward reads.
#[derive(Default)]
struct Forward {
    /// `gu ⊙ gi`.
    gmf_t: Vec<f32>,
    /// One gathered `mlp_user` row per run, and its layer-0 partial sum.
    mu: Vec<f32>,
    prefix: Vec<f32>,
    /// The gathered `mlp_item` rows.
    mi: Vec<f32>,
    /// Every MLP layer's output, after its ReLU.
    hidden: Vec<Vec<f32>>,
    last_t: Vec<f32>,
    logits: Vec<f32>,
}

/// The forward pass over `users.len()` runs of `run` rows: run `u`
/// pairs user row `users[u]` with `items[u * run..][..run]`. A score is
/// one run; a train batch is one run per pair.
///
/// Bit-equal to the tape's logits: every element is the same
/// expression over the same operands in the same order.
/// - GMF multiplies the table rows in place (`gu * gi`).
/// - The user half of MLP layer 0 is the same partial sum for every row
///   of a run (the kernel chains each element from `+0.0` in ascending
///   `k`, and the user columns come first). It is computed once per run
///   as one `runs x width` product, copied into every row of the run,
///   and each row's chain continues over the item half.
/// - Bias add and ReLU are one pass, `(x + b).max(0.0)`.
/// - The `n = 1` output product chains each row over k-major copies,
///   GMF columns first, then MLP columns, one vector lane per row, and
///   then adds its bias.
fn forward(state: &NeuMfState, users: &[u32], run: usize, items: &[u32], f: &mut Forward) {
    let p = &state.params;
    let threads = kernel::threads();
    let n = items.len();
    debug_assert_eq!(n, users.len() * run);
    let layers = state.mlp.layers();
    f.hidden.resize_with(layers.len(), Vec::new);
    f.logits.clear();
    if n == 0 {
        return;
    }

    let gu = p.get(state.gmf_user);
    let gi = p.get(state.gmf_item);
    f.gmf_t.clear();
    f.gmf_t.resize(gu.cols() * n, 0.0);
    let rows = users.iter().flat_map(|&u| std::iter::repeat_n(u, run));
    for (r, (u, &i)) in rows.zip(items).enumerate() {
        let gu = gu.row_slice(u as usize);
        let products = gu
            .iter()
            .zip(gi.row_slice(i as usize))
            .map(|(&x, &y)| x * y);
        set_k_major(&mut f.gmf_t, n, r, products);
    }

    let (first, rest) = layers.split_first().expect("NeuMF MLP layers");
    let w0 = p.get(first.w);
    let width = w0.cols();
    let mlp_user = p.get(state.mlp_user);
    let (w_user, w_item) = w0.data().split_at(mlp_user.cols() * width);
    f.mu.clear();
    for &u in users {
        f.mu.extend_from_slice(mlp_user.row_slice(u as usize));
    }
    f.prefix.clear();
    f.prefix.resize(users.len() * width, 0.0);
    kernel::matmul(
        &f.mu,
        users.len(),
        mlp_user.cols(),
        w_user,
        width,
        &mut f.prefix,
        threads,
    );
    let h = &mut f.hidden[0];
    h.clear();
    for prefix in f.prefix.chunks_exact(width) {
        for _ in 0..run {
            h.extend_from_slice(prefix);
        }
    }
    let mlp_item = p.get(state.mlp_item);
    f.mi.clear();
    for &i in items {
        f.mi.extend_from_slice(mlp_item.row_slice(i as usize));
    }
    kernel::matmul(&f.mi, n, mlp_item.cols(), w_item, width, h, threads);
    bias_relu(h, p.get(first.b).data());
    for (l, layer) in rest.iter().enumerate() {
        let w = p.get(layer.w);
        let (done, todo) = f.hidden.split_at_mut(l + 1);
        let next = &mut todo[0];
        next.clear();
        next.resize(n * w.cols(), 0.0);
        kernel::matmul(&done[l], n, w.rows(), w.data(), w.cols(), next, threads);
        bias_relu(next, p.get(layer.b).data());
    }

    let last = f.hidden.last().expect("NeuMF MLP layers");
    f.last_t.clear();
    f.last_t.resize(last.len(), 0.0);
    for (r, row) in last.chunks_exact(state.mlp.out_dim()).enumerate() {
        set_k_major(&mut f.last_t, n, r, row.iter().copied());
    }
    let wo = p.get(state.out.w);
    debug_assert_eq!(wo.cols(), 1);
    f.logits.resize(n, 0.0);
    let columns = f.gmf_t.chunks_exact(n).chain(f.last_t.chunks_exact(n));
    for (column, &w) in columns.zip(wo.data()) {
        for (o, &x) in f.logits.iter_mut().zip(column) {
            *o += x * w;
        }
    }
    let bo = p.get(state.out.b).data()[0];
    for o in &mut f.logits {
        *o += bo;
    }
}

/// Writes `row` as row `r` of the k-major `dst` (`row.len() x n`).
fn set_k_major(dst: &mut [f32], n: usize, r: usize, row: impl Iterator<Item = f32>) {
    for (column, x) in dst.chunks_exact_mut(n).zip(row) {
        column[r] = x;
    }
}

/// `x = (x + b).max(0.0)` per row: the tape's bias add, then its ReLU.
fn bias_relu(x: &mut [f32], b: &[f32]) {
    for row in x.chunks_exact_mut(b.len()) {
        for (x, &b) in row.iter_mut().zip(b) {
            *x = (*x + b).max(0.0);
        }
    }
}

/// The tape's bias gradient: column sums of the `n x cols` adjoint `g`
/// from `+0.0` in row order. (For one row the tape adds the row as it
/// is; the `0.0 +` seed of the update gives both the same bits.)
fn bias_grad(g: &[f32], cols: usize, out: &mut Vec<f32>) {
    out.clear();
    out.resize(cols, 0.0);
    for row in g.chunks_exact(cols) {
        for (o, &x) in out.iter_mut().zip(row) {
            *o += x;
        }
    }
}

/// A zero-filled `len` buffer for a kernel to accumulate into.
fn zeroed(buf: &mut Vec<f32>, len: usize) -> &mut Vec<f32> {
    buf.clear();
    buf.resize(len, 0.0);
    buf
}

/// `Sgd::step` on a dense parameter whose gradient the tape wrote into a
/// zeroed store as `0.0 + 1.0 * x`: `p += (-lr) * g`.
fn sgd_dense(p: &mut Matrix, alpha: f32, grad: &[f32]) {
    for (p, &x) in p.data_mut().iter_mut().zip(grad) {
        *p += alpha * (0.0 + 1.0 * x);
    }
}

/// Compact gradient rows of the GMF and MLP embedding tables one index
/// list feeds (users, or items). `slot[r]` is table row `r`'s place in
/// `rows` (`NONE` while untouched); `gmf` and `mlp` hold one `width`
/// accumulator per touched row, summed from `+0.0` in batch-row order,
/// as the tape's gather backward sums into its zeroed table.
struct GradRows {
    width: usize,
    slot: Vec<u32>,
    rows: Vec<u32>,
    gmf: Vec<f32>,
    mlp: Vec<f32>,
}

impl GradRows {
    const NONE: u32 = u32::MAX;

    fn new(table_rows: usize, width: usize) -> Self {
        Self {
            width,
            slot: vec![Self::NONE; table_rows],
            rows: Vec::new(),
            gmf: Vec::new(),
            mlp: Vec::new(),
        }
    }

    /// The accumulators of table row `r`, zero-filled on first touch.
    fn rows_of(&mut self, r: u32) -> (&mut [f32], &mut [f32]) {
        let w = self.width;
        let slot = &mut self.slot[r as usize];
        if *slot == Self::NONE {
            *slot = self.rows.len() as u32;
            self.rows.push(r);
            self.gmf.resize(self.gmf.len() + w, 0.0);
            self.mlp.resize(self.mlp.len() + w, 0.0);
        }
        let at = *slot as usize * w;
        (&mut self.gmf[at..at + w], &mut self.mlp[at..at + w])
    }

    /// `Sgd::step` on one table whose gradient is `acc` on the touched
    /// rows and `+0.0` elsewhere: `p += (-lr) * g`. For a finite `lr`
    /// with its sign bit clear only the touched rows change (an untouched
    /// row would add `-0.0`, which leaves every value as it is).
    /// Otherwise the dense sweep is replayed: an untouched row adds
    /// `(-lr) * +0.0`, which is NaN for a NaN or infinite `lr` and `+0.0`
    /// (turning `-0.0` into `+0.0`) for a negative one.
    fn sgd(&self, table: &mut Matrix, acc: &[f32], alpha: f32, rows_exact: bool) {
        let w = self.width;
        if rows_exact {
            for (&r, g) in self.rows.iter().zip(acc.chunks_exact(w)) {
                for (p, &g) in table.row_slice_mut(r as usize).iter_mut().zip(g) {
                    *p += alpha * g;
                }
            }
            return;
        }
        for (row, &slot) in table.data_mut().chunks_exact_mut(w).zip(&self.slot) {
            if slot == Self::NONE {
                row.iter_mut().for_each(|p| *p += alpha * 0.0);
            } else {
                let g = &acc[slot as usize * w..][..w];
                for (p, &g) in row.iter_mut().zip(g) {
                    *p += alpha * g;
                }
            }
        }
    }

    fn clear(&mut self) {
        for &r in &self.rows {
            self.slot[r as usize] = Self::NONE;
        }
        self.rows.clear();
        self.gmf.clear();
        self.mlp.clear();
    }
}

/// Buffers of the tape-free train step for one pass. It holds no model
/// state: every buffer is overwritten batch by batch, and the gradient
/// rows are emptied after each update.
struct Scratch {
    fwd: Forward,
    /// Adjoints: of the logits, the GMF product, the current MLP layer
    /// (and the one below it), and the two gathered MLP embeddings.
    d_out: Vec<f32>,
    d_gmf: Vec<f32>,
    d_h: Vec<f32>,
    d_below: Vec<f32>,
    d_mu: Vec<f32>,
    d_mi: Vec<f32>,
    /// The `mlp_user` row of every batch row (the layer-0 weight
    /// gradient's left operand).
    mu: Vec<f32>,
    /// Weight and bias gradients, per MLP layer and of the output layer.
    layer_w: Vec<Vec<f32>>,
    layer_b: Vec<Vec<f32>>,
    out_w: Vec<f32>,
    out_b: Vec<f32>,
    users: GradRows,
    items: GradRows,
}

impl Scratch {
    fn new(state: &NeuMfState) -> Self {
        let p = &state.params;
        let layers = state.mlp.layers().len();
        let d = p.get(state.gmf_user).cols();
        Self {
            fwd: Forward::default(),
            d_out: Vec::new(),
            d_gmf: Vec::new(),
            d_h: Vec::new(),
            d_below: Vec::new(),
            d_mu: Vec::new(),
            d_mi: Vec::new(),
            mu: Vec::new(),
            layer_w: vec![Vec::new(); layers],
            layer_b: vec![Vec::new(); layers],
            out_w: Vec::new(),
            out_b: Vec::new(),
            users: GradRows::new(p.get(state.gmf_user).rows(), d),
            items: GradRows::new(p.get(state.gmf_item).rows(), d),
        }
    }
}

/// One SGD step on `batch` without a tape: [`forward`], then the tape's
/// backward replayed op by op, then `Sgd::step`. Bit-equal to the tape:
/// - the BCE adjoint is `scale * mv * (σ(x) − y)` with `scale = 1/n`
///   and every mask weight `mv = 1.0`;
/// - bias gradients are column sums from `+0.0` in row order;
/// - the ReLU passes the adjoint where its input is `> 0.0` (where its
///   output is: `max(x, 0.0)` is positive exactly there);
/// - adjoints and weight gradients run the tape's `kernel::matmul_t` /
///   `t_matmul` calls, except the output weight's GMF block: `matmul`
///   over GMF's k-major copy, the same operands in the same ascending
///   chain from `+0.0`;
/// - each weight gradient enters the update as `0.0 + 1.0 * x`, as
///   `axpy` seeds a zeroed store;
/// - embedding gradients are summed from `+0.0` in batch-row order into
///   [`GradRows`], not full-size tables;
/// - all gradients are taken before any parameter moves.
///
/// The loss value, which nothing reads, is not computed.
fn train_batch(state: &mut NeuMfState, lr: f32, batch: &Batch, s: &mut Scratch) {
    let n = batch.items.len();
    let run = batch.run;
    forward(state, &batch.users, run, &batch.items, &mut s.fwd);
    let threads = kernel::threads();
    let p = &state.params;
    let f = &s.fwd;

    let scale = 1.0 / n as f32;
    let mv = 1.0;
    s.d_out.clear();
    s.d_out.extend(
        f.logits
            .iter()
            .enumerate()
            .map(|(r, &x)| scale * mv * (stable_sigmoid(x) - batch.label(r))),
    );

    // Output layer over `[gmf | h_last]`, one part at a time.
    let d = p.get(state.gmf_user).cols();
    let last = f.hidden.last().expect("NeuMF MLP layers");
    let last_w = state.mlp.out_dim();
    let wo = p.get(state.out.w).data();
    bias_grad(&s.d_out, 1, &mut s.out_b);
    let gw = zeroed(&mut s.out_w, wo.len());
    kernel::matmul(&f.gmf_t, d, n, &s.d_out, 1, &mut gw[..d], threads);
    kernel::t_matmul(last, n, last_w, &s.d_out, 1, &mut gw[d..], threads);
    let d_gmf = zeroed(&mut s.d_gmf, n * d);
    kernel::matmul_t(&s.d_out, n, 1, &wo[..d], d, d_gmf, threads);
    let d_h = zeroed(&mut s.d_h, n * last_w);
    kernel::matmul_t(&s.d_out, n, 1, &wo[d..], last_w, d_h, threads);

    // MLP layers, top down.
    let layers = state.mlp.layers();
    for (l, layer) in layers.iter().enumerate().rev() {
        let w = p.get(layer.w);
        for (g, &y) in s.d_h.iter_mut().zip(&f.hidden[l]) {
            *g = if y > 0.0 { *g } else { 0.0 };
        }
        bias_grad(&s.d_h, w.cols(), &mut s.layer_b[l]);
        let gw = zeroed(&mut s.layer_w[l], w.len());
        if l > 0 {
            let below = &f.hidden[l - 1];
            kernel::t_matmul(below, n, w.rows(), &s.d_h, w.cols(), gw, threads);
            let d_below = zeroed(&mut s.d_below, n * w.rows());
            kernel::matmul_t(&s.d_h, n, w.cols(), w.data(), w.rows(), d_below, threads);
            std::mem::swap(&mut s.d_h, &mut s.d_below);
            continue;
        }
        // Layer 0 over `[mu | mi]`: the user block of the weight, then
        // the item block.
        let mlp_user = p.get(state.mlp_user);
        s.mu.clear();
        for &u in &batch.users {
            for _ in 0..run {
                s.mu.extend_from_slice(mlp_user.row_slice(u as usize));
            }
        }
        let du = mlp_user.cols();
        let di = w.rows() - du;
        let (w_user, w_item) = w.data().split_at(du * w.cols());
        let (gw_user, gw_item) = gw.split_at_mut(du * w.cols());
        kernel::t_matmul(&s.mu, n, du, &s.d_h, w.cols(), gw_user, threads);
        kernel::matmul_t(
            &s.d_h,
            n,
            w.cols(),
            w_user,
            du,
            zeroed(&mut s.d_mu, n * du),
            threads,
        );
        kernel::t_matmul(&f.mi, n, di, &s.d_h, w.cols(), gw_item, threads);
        kernel::matmul_t(
            &s.d_h,
            n,
            w.cols(),
            w_item,
            di,
            zeroed(&mut s.d_mi, n * di),
            threads,
        );
    }

    // Embedding rows: `mul(gu, gi)` hands `g * gi` to the user row and
    // `g * gu` to the item row. Each table sums in batch-row order.
    let gu = p.get(state.gmf_user);
    let gi = p.get(state.gmf_item);
    let runs = batch
        .users
        .iter()
        .flat_map(|&u| std::iter::repeat_n(u, run));
    let adjoints = s
        .d_gmf
        .chunks_exact(d)
        .zip(s.d_mu.chunks_exact(d).zip(s.d_mi.chunks_exact(d)));
    for ((u, &i), (g, (d_mu, d_mi))) in runs.zip(&batch.items).zip(adjoints) {
        for (rows, table_row, other, d_mlp) in [
            (&mut s.users, u, gi.row_slice(i as usize), d_mu),
            (&mut s.items, i, gu.row_slice(u as usize), d_mi),
        ] {
            let (acc_gmf, acc_mlp) = rows.rows_of(table_row);
            for ((a, &g), &y) in acc_gmf.iter_mut().zip(g).zip(other) {
                *a += g * y;
            }
            for (a, &x) in acc_mlp.iter_mut().zip(d_mlp) {
                *a += x;
            }
        }
    }

    // `Sgd::step`: every parameter moves independently.
    let alpha = -lr;
    let rows_exact = lr.is_finite() && lr.is_sign_positive();
    let p = &mut state.params;
    for (l, layer) in layers.iter().enumerate() {
        sgd_dense(p.get_mut(layer.w), alpha, &s.layer_w[l]);
        sgd_dense(p.get_mut(layer.b), alpha, &s.layer_b[l]);
    }
    sgd_dense(p.get_mut(state.out.w), alpha, &s.out_w);
    sgd_dense(p.get_mut(state.out.b), alpha, &s.out_b);
    let users = &s.users;
    users.sgd(p.get_mut(state.gmf_user), &users.gmf, alpha, rows_exact);
    users.sgd(p.get_mut(state.mlp_user), &users.mlp, alpha, rows_exact);
    let items = &s.items;
    items.sgd(p.get_mut(state.gmf_item), &items.gmf, alpha, rows_exact);
    items.sgd(p.get_mut(state.mlp_item), &items.mlp, alpha, rows_exact);
    s.users.clear();
    s.items.clear();
}

impl Ranker for NeuMf {
    fn name(&self) -> &'static str {
        "NeuMF"
    }

    fn fit(&mut self, view: &LogView<'_>, seed: u64) {
        self.fit_with(view, seed, train_batch);
    }

    fn fine_tune(&mut self, view: &LogView<'_>, seed: u64) {
        self.fine_tune_with(view, seed, train_batch);
    }

    fn score(&self, user: UserId, _history: &[ItemId], candidates: &[ItemId]) -> Vec<f32> {
        let state = self
            .state
            .as_ref()
            .expect("NeuMf::fit must run before score");
        let mut f = Forward::default();
        let row = self.emb.user_row(user) as u32;
        forward(state, &[row], candidates.len(), candidates, &mut f);
        f.logits
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
    use tensor::optim::{Optimizer, Sgd};
    use tensor::{GradStore, Graph};

    fn clustered() -> Dataset {
        let mut histories = Vec::new();
        for u in 0..60u32 {
            let offset = if u < 30 { 0 } else { 10 };
            let h: Vec<u32> = (0..8).map(|t| offset + ((u + t) % 10)).collect();
            histories.push(h);
        }
        Dataset::from_histories("clustered", histories, 20, 2)
    }

    /// The tape oracle: NeuMF's logits for a batch of (user row, item)
    /// pairs, built from `concat_cols` and the layers' `forward`.
    fn tape_logits(
        state: &NeuMfState,
        g: &mut Graph<'_>,
        users: &[u32],
        items: &[u32],
    ) -> tensor::Var {
        let gu = g.gather(state.gmf_user, users);
        let gi = g.gather(state.gmf_item, items);
        let gmf = g.mul(gu, gi);
        let mu = g.gather(state.mlp_user, users);
        let mi = g.gather(state.mlp_item, items);
        let x = g.concat_cols(mu, mi);
        let mlp_out = state.mlp.forward(g, x);
        let z = g.concat_cols(gmf, mlp_out);
        state.out.forward(g, z)
    }

    /// The tape train step `train_batch` replays.
    fn tape_step(state: &mut NeuMfState, lr: f32, batch: &Batch, _: &mut Scratch) {
        let n = batch.items.len();
        let users: Vec<u32> = batch
            .users
            .iter()
            .flat_map(|&u| std::iter::repeat_n(u, batch.run))
            .collect();
        let targets = Matrix::from_vec(n, 1, (0..n).map(|r| batch.label(r)).collect());
        let mask = Matrix::full(n, 1, 1.0);
        let mut grads = GradStore::zeros_like(&state.params);
        {
            let mut g = Graph::new(&state.params);
            let logits = tape_logits(state, &mut g, &users, &batch.items);
            let loss = g.bce_with_logits(logits, targets, mask);
            g.backward(loss, &mut grads);
        }
        Sgd::new(lr).step(&mut state.params, &grads);
    }

    /// Every parameter's bits, NaN canonicalized (NaN payloads are left
    /// to the implementation; DESIGN.md §5g).
    fn param_bits(state: &NeuMfState) -> Vec<Vec<u32>> {
        state
            .params
            .iter()
            .map(|(_, m)| {
                m.data()
                    .iter()
                    .map(|&x| if x.is_nan() { f32::NAN } else { x }.to_bits())
                    .collect()
            })
            .collect()
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

    /// The tape-free `score` must give the tape's logits bit for bit:
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
            let logits = tape_logits(state, &mut g, &rows, items);
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

    /// One `train_batch` must move every parameter to the bits one tape
    /// step (`logits` + `bce_with_logits` + `backward` + `Sgd::step`)
    /// gives: runs with repeated users and items and attacker rows, a
    /// one-row batch, learning rates that take the row-sparse update
    /// (`0.05`) and the dense sweep (NaN, ∞, `-0.05`), and parameters
    /// with `+0.0` and `-0.0` entries (so signed zeros reach every
    /// adjoint and the dense sweep's `+0.0` turns `-0.0` rows).
    #[test]
    fn train_batch_matches_tape_step_bitwise() {
        let d = clustered();
        let view = LogView::clean(&d);
        let mut r = NeuMf::new(NeuMfConfig::default(), EmbeddingConfig::for_view(&view, 4));
        r.fit(&view, 5);
        let mut seeded = r.state.clone().expect("fitted");
        let ids: Vec<ParamId> = seeded.params.iter().map(|(id, _)| id).collect();
        for id in ids {
            for (k, x) in seeded.params.get_mut(id).data_mut().iter_mut().enumerate() {
                match k % 13 {
                    0 => *x = 0.0,
                    5 => *x = -0.0,
                    _ => {}
                }
            }
        }
        let batches = [
            Batch {
                // Users 60 and 63 are attacker rows; user 4 and items 3,
                // 20 repeat across runs and within one.
                users: vec![4, 60, 4, 63, 17],
                items: vec![
                    3, 20, 3, 9, 11, 20, 20, 0, 5, 3, 3, 7, 8, 1, 2, 19, 20, 4, 4, 6, 0, 13, 12, 3,
                    20,
                ],
                run: 5,
            },
            Batch {
                users: vec![61],
                items: vec![20],
                run: 1,
            },
        ];
        for (name, state) in [
            ("fitted", r.state.as_ref().expect("fitted")),
            ("±0", &seeded),
        ] {
            for batch in &batches {
                for lr in [0.05, f32::NAN, f32::INFINITY, -0.05] {
                    let mut tape = state.clone();
                    tape_step(&mut tape, lr, batch, &mut Scratch::new(state));
                    let mut free = state.clone();
                    train_batch(&mut free, lr, batch, &mut Scratch::new(state));
                    assert_eq!(
                        param_bits(&free),
                        param_bits(&tape),
                        "{name} params, {} rows, lr {lr}",
                        batch.items.len()
                    );
                }
            }
        }
    }

    /// A fit plus three fine-tunes with the tape-free step must reach
    /// the tape's parameters bit for bit at every stage, with
    /// `neg_ratio` 4 (five-row runs, 260-row batches) and `neg_ratio` 0
    /// (one-row runs). A pass with no pairs takes no step, whatever the
    /// learning rate.
    #[test]
    fn fit_and_fine_tunes_match_tape_bitwise() {
        let d = clustered();
        let view = LogView::clean(&d);
        let emb = EmbeddingConfig::for_view(&view, 4);
        let configs = [
            NeuMfConfig::default(),
            NeuMfConfig {
                neg_ratio: 0,
                batch: 64,
                ft_replay: 100,
                ..NeuMfConfig::default()
            },
        ];
        for cfg in configs {
            let mut free = NeuMf::new(cfg, emb);
            let mut tape = NeuMf::new(cfg, emb);
            free.fit_with(&view, 7, train_batch);
            tape.fit_with(&view, 7, tape_step);
            let bits = |r: &NeuMf| param_bits(r.state.as_ref().expect("fitted"));
            assert_eq!(bits(&free), bits(&tape), "fit, neg_ratio {}", cfg.neg_ratio);
            for round in 0..3u32 {
                let poison: Vec<Vec<ItemId>> = (0..4)
                    .map(|a| vec![20, (a + round) % 20, 20, a + 5])
                    .collect();
                let pview = LogView::new(&d, &poison);
                free.fine_tune_with(&pview, 11 + u64::from(round), train_batch);
                tape.fine_tune_with(&pview, 11 + u64::from(round), tape_step);
                assert_eq!(
                    bits(&free),
                    bits(&tape),
                    "fine-tune {round}, neg_ratio {}",
                    cfg.neg_ratio
                );
            }
        }

        let mut r = NeuMf::new(NeuMfConfig::default(), emb);
        r.fit(&view, 3);
        r.cfg.lr = f32::NAN;
        let before = param_bits(r.state.as_ref().expect("fitted"));
        let mut rng = StdRng::seed_from_u64(1);
        r.train_pass(&view, &[], &mut rng, train_batch);
        let after = param_bits(r.state.as_ref().expect("fitted"));
        assert_eq!(after, before, "an empty pass moved a parameter");
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
