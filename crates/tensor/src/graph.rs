//! Tape-based reverse-mode automatic differentiation over dense
//! matrices.
//!
//! A [`Graph`] is rebuilt for every forward pass (define-by-run). Every
//! operation evaluates eagerly and records enough information on the
//! tape to compute vector-Jacobian products in a single reverse sweep.
//! Gradients of [`crate::ParamSet`] parameters accumulate into a
//! [`crate::GradStore`], so multiple `backward` calls (e.g. one per
//! sampled trajectory) naturally sum their gradients.
//!
//! Only the operations needed by the PoisonRec reproduction are
//! implemented, each verified against central finite differences in the
//! test suite.

use std::sync::Arc;

use crate::kernel;
use crate::matrix::Matrix;
use crate::params::{GradStore, ParamId, ParamSet};
use crate::profile::{self, OpKind};
use crate::sparse::Csr;
use crate::transcendental;

/// Handle to a node on the tape.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Var(usize);

enum Op {
    /// External constant input; no gradient propagates past it.
    Input,
    /// A full parameter matrix.
    Param(ParamId),
    /// Row-gather from a parameter (embedding lookup).
    Gather(ParamId, Vec<u32>),
    /// Row-gather from another tape node.
    GatherVar(Var, Vec<u32>),
    MatMul(Var, Var),
    /// `a * b^T` — logits against an embedding table.
    MatMulT(Var, Var),
    /// `a * P` with the parameter read in place: no `Param` copy lands
    /// on the tape and `dP` goes straight to the [`GradStore`].
    /// Bit-equal to `matmul(a, param(p))`.
    MatMulParam(Var, ParamId),
    /// `a * P^T`, fused like [`Op::MatMulParam`].
    MatMulTParam(Var, ParamId),
    /// `a + P` where `P` is a `1 x cols` parameter row broadcast over
    /// the rows of `a` (fused bias add).
    AddRowParam(Var, ParamId),
    /// Same-shape addition, or `b` is a `1 x cols` row broadcast over
    /// the rows of `a`.
    Add(Var, Var),
    Sub(Var, Var),
    /// Elementwise product (same shapes).
    Mul(Var, Var),
    /// Per-row dot product of two same-shape operands into a
    /// `rows x 1` column; bit-equal to `matmul(mul(a, b), ones)`.
    RowDot(Var, Var),
    /// Two-way log-softmax pick over `⟨src[rows[r]], T[left[r]]⟩` and
    /// `⟨src[rows[r]], T[right[r]]⟩`, with parameter `T` read in place.
    /// Caches the two logits of every row (`logits[2r..2r + 2]`) and
    /// its log-sum-exp; bit-equal to the seven-op gather / `row_dot` /
    /// `concat_cols` / `log_softmax_pick` pipeline.
    PairLogp {
        src: Var,
        rows: Vec<u32>,
        table: ParamId,
        left: Vec<u32>,
        right: Vec<u32>,
        chosen: Vec<u32>,
        logits: Vec<f32>,
        lse: Vec<f32>,
    },
    Scale(Var, f32),
    AddScalar(Var),
    Relu(Var),
    LeakyRelu(Var, f32),
    Sigmoid(Var),
    Tanh(Var),
    Softplus(Var),
    ConcatCols(Var, Var),
    /// Row-wise stack of the parts, in order.
    ConcatRows(Vec<Var>),
    SumAll(Var),
    MeanAll(Var),
    /// Row-wise log-softmax.
    LogSoftmaxRows(Var),
    /// Picks `x[r, idx[r]]` for every row into an `rows x 1` column.
    PickPerRow(Var, Vec<u32>),
    /// `pick_per_row(log_softmax_rows(a), idx)` fused: only the picked
    /// log-probs are materialized; the per-row log-sum-exp is cached so
    /// the backward can reconstruct `lp[c] = x[c] - lse` bit-exactly.
    LogSoftmaxPick(Var, Vec<u32>, Vec<f32>),
    /// `sparse * dense`; the sparse operand is constant.
    SpMM(Arc<Csr>, Var),
    /// Mean binary cross-entropy with logits, weighted by `mask`.
    BceWithLogits {
        logits: Var,
        targets: Matrix,
        mask: Matrix,
    },
    /// Mean squared error restricted to `mask` entries.
    MseMasked {
        pred: Var,
        targets: Matrix,
        mask: Matrix,
    },
    /// Sum of squared entries (L2 regularizer building block).
    SqSum(Var),
}

impl Op {
    /// The profiler aggregation key. Exhaustive on purpose: adding an
    /// `Op` variant without classifying it is a compile error.
    fn kind(&self) -> OpKind {
        match self {
            Op::Input => OpKind::Input,
            Op::Param(..) => OpKind::Param,
            Op::Gather(..) => OpKind::Gather,
            Op::GatherVar(..) => OpKind::GatherVar,
            Op::MatMul(..) | Op::MatMulParam(..) => OpKind::MatMul,
            Op::MatMulT(..) | Op::MatMulTParam(..) => OpKind::MatMulT,
            Op::AddRowParam(..) => OpKind::Add,
            Op::Add(..) => OpKind::Add,
            Op::Sub(..) => OpKind::Sub,
            Op::Mul(..) => OpKind::Mul,
            Op::RowDot(..) => OpKind::RowDot,
            Op::PairLogp { .. } => OpKind::PairLogp,
            Op::Scale(..) => OpKind::Scale,
            Op::AddScalar(..) => OpKind::AddScalar,
            Op::Relu(..) => OpKind::Relu,
            Op::LeakyRelu(..) => OpKind::LeakyRelu,
            Op::Sigmoid(..) => OpKind::Sigmoid,
            Op::Tanh(..) => OpKind::Tanh,
            Op::Softplus(..) => OpKind::Softplus,
            Op::ConcatCols(..) => OpKind::ConcatCols,
            Op::ConcatRows(..) => OpKind::ConcatRows,
            Op::SumAll(..) => OpKind::SumAll,
            Op::MeanAll(..) => OpKind::MeanAll,
            Op::LogSoftmaxRows(..) | Op::LogSoftmaxPick(..) => OpKind::LogSoftmaxRows,
            Op::PickPerRow(..) => OpKind::PickPerRow,
            Op::SpMM(..) => OpKind::SpMM,
            Op::BceWithLogits { .. } => OpKind::BceWithLogits,
            Op::MseMasked { .. } => OpKind::MseMasked,
            Op::SqSum(..) => OpKind::SqSum,
        }
    }
}

struct Node {
    value: Matrix,
    op: Op,
}

/// Whether `indices` is a consecutive ascending run (`i, i+1, ...`),
/// letting gather/scatter paths move one contiguous block instead of
/// one row at a time.
fn is_consecutive(indices: &[u32]) -> bool {
    indices.windows(2).all(|w| w[1] == w[0].wrapping_add(1))
}

/// Row bounds check for the gathers. `Matrix::row_slice` checks only in
/// debug builds, and a zero-width table accepts any row there, so an
/// out-of-range index would otherwise surface (if at all) deep in the
/// backward sweep.
fn check_rows(indices: &[u32], rows: usize) {
    if let Some(&bad) = indices.iter().find(|&&i| i as usize >= rows) {
        panic!("gather index {bad} out of range for a table of {rows} rows");
    }
}

/// Column bounds check for the picks, in release builds too:
/// `Matrix::at`/`set` check only in debug builds, so a pick index past
/// the last column would otherwise read (and, in the backward sweep,
/// write) the next row's entry. The backward arms reuse the indices
/// checked here.
fn check_cols(indices: &[u32], cols: usize) {
    if let Some(&bad) = indices.iter().find(|&&i| i as usize >= cols) {
        panic!("pick index {bad} out of range for {cols} columns");
    }
}

/// Freelist of `f32` buffers recycled between graphs, segregated into
/// power-of-two capacity classes so `take` is O(1) on the hot path
/// (the tape allocates one buffer per node per sweep — a linear scan
/// here dominated small-op time). Buffers come back cleared, so every
/// consumer rebuilds contents from scratch (reuse can never leak
/// stale values into results).
#[derive(Default)]
struct BufferPool {
    /// `classes[c]` holds buffers whose capacity `v` has bit width `c`
    /// (`v in [2^(c-1), 2^c)`), so every buffer in class `c` holds at
    /// least `2^(c-1)` elements.
    classes: Vec<Vec<Vec<f32>>>,
    held: usize,
}

/// Bit width of `v`: the index of the capacity class it belongs to.
fn class_of(v: usize) -> usize {
    (usize::BITS - v.leading_zeros()) as usize
}

impl BufferPool {
    /// Cap on retained buffers: a runaway tape must not turn the pool
    /// into an unbounded leak.
    const MAX_FREE: usize = 512;
    /// Classes above the request searched by `take` before giving up
    /// and allocating fresh — bounded so a tiny request never steals
    /// (and then shrinks the pool's supply of) a huge buffer.
    const CLASS_SLACK: usize = 3;

    fn take(&mut self, len: usize) -> Vec<f32> {
        if self.held > 0 {
            let own = class_of(len);
            let top = (own + Self::CLASS_SLACK).min(self.classes.len() - 1);
            // The request's own class needs a capacity check (it spans
            // capacities on both sides of `len`); higher classes are
            // all guaranteed fits, newest first.
            if let Some(pos) = self
                .classes
                .get(own)
                .and_then(|bin| bin.iter().rposition(|b| b.capacity() >= len))
            {
                self.held -= 1;
                return self.classes[own].swap_remove(pos);
            }
            for c in own + 1..=top {
                if let Some(buf) = self.classes.get_mut(c).and_then(Vec::pop) {
                    self.held -= 1;
                    return buf;
                }
            }
        }
        Vec::with_capacity(len)
    }

    fn put(&mut self, mut buf: Vec<f32>) {
        if self.held >= Self::MAX_FREE || buf.capacity() == 0 {
            return;
        }
        buf.clear();
        let c = class_of(buf.capacity());
        if self.classes.len() <= c {
            self.classes.resize_with(c + 1, Vec::new);
        }
        self.classes[c].push(buf);
        self.held += 1;
    }

    fn recycle(&mut self, m: Matrix) {
        self.put(m.into_vec());
    }

    fn zeros(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut buf = self.take(rows * cols);
        buf.resize(rows * cols, 0.0);
        Matrix::from_vec(rows, cols, buf)
    }

    fn full(&mut self, rows: usize, cols: usize, value: f32) -> Matrix {
        let mut buf = self.take(rows * cols);
        buf.resize(rows * cols, value);
        Matrix::from_vec(rows, cols, buf)
    }

    fn collect(&mut self, rows: usize, cols: usize, it: impl Iterator<Item = f32>) -> Matrix {
        let mut buf = self.take(rows * cols);
        buf.extend(it);
        Matrix::from_vec(rows, cols, buf)
    }

    fn copy_of(&mut self, m: &Matrix) -> Matrix {
        let mut buf = self.take(m.len());
        buf.extend_from_slice(m.data());
        Matrix::from_vec(m.rows(), m.cols(), buf)
    }
}

/// Reusable allocations for define-by-run training loops: the node
/// tape, the backward adjoint slots, and a [`BufferPool`] of matrix
/// storage. Build graphs with [`Graph::new_in`] and hand them back
/// with [`Graph::retire`]; each trainer step then reuses the previous
/// step's buffers instead of reallocating one `Matrix` per node per
/// sweep. The arena is plain scratch — it holds no model state, so
/// checkpoint formats and results are unaffected by when (or whether)
/// it is recycled.
#[derive(Default)]
pub struct GraphArena {
    pool: BufferPool,
    nodes: Vec<Node>,
    adj: Vec<Option<Adjoint>>,
}

impl GraphArena {
    pub fn new() -> Self {
        Self::default()
    }
}

/// One node's pending gradient during the backward sweep.
enum Adjoint {
    Dense(Matrix),
    /// Sparse one-entry-per-row gradient: entry `(r, idx[r]) = val[r]`,
    /// zero elsewhere. Produced by `PickPerRow`'s backward so the hot
    /// pick-from-log-softmax pipeline never materializes (or
    /// zero-fills) a dense `K x R` matrix per call.
    RowSelect {
        rows: usize,
        cols: usize,
        idx: Vec<u32>,
        val: Vec<f32>,
    },
}

impl Adjoint {
    fn into_dense(self, pool: &mut BufferPool) -> Matrix {
        match self {
            Adjoint::Dense(m) => m,
            Adjoint::RowSelect {
                rows,
                cols,
                idx,
                val,
            } => {
                let mut m = pool.zeros(rows, cols);
                for (r, (&c, &v)) in idx.iter().zip(&val).enumerate() {
                    m.set(r, c as usize, v);
                }
                m
            }
        }
    }
}

/// Define-by-run autodiff tape borrowing a [`ParamSet`].
pub struct Graph<'p> {
    params: &'p ParamSet,
    nodes: Vec<Node>,
    pool: BufferPool,
    /// Backward scratch (empty between sweeps; kept for its capacity).
    adj: Vec<Option<Adjoint>>,
}

impl<'p> Graph<'p> {
    pub fn new(params: &'p ParamSet) -> Self {
        Self {
            params,
            nodes: Vec::with_capacity(64),
            pool: BufferPool::default(),
            adj: Vec::new(),
        }
    }

    /// Builds a graph drawing its allocations from `arena` (see
    /// [`GraphArena`]). Results are identical to [`Graph::new`]; only
    /// allocation traffic differs.
    pub fn new_in(params: &'p ParamSet, arena: &mut GraphArena) -> Self {
        let mut nodes = std::mem::take(&mut arena.nodes);
        nodes.clear();
        let mut adj = std::mem::take(&mut arena.adj);
        adj.clear();
        Self {
            params,
            nodes,
            pool: std::mem::take(&mut arena.pool),
            adj,
        }
    }

    /// Returns every buffer this graph owns to `arena` for the next
    /// [`Graph::new_in`] to reuse.
    pub fn retire(mut self, arena: &mut GraphArena) {
        for node in self.nodes.drain(..) {
            self.pool.recycle(node.value);
        }
        arena.nodes = self.nodes;
        arena.adj = self.adj;
        arena.pool = self.pool;
    }

    /// Number of tape nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The current value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        if profile::enabled() {
            profile::record_dims(
                op.kind(),
                value.len() as u64,
                self.flop_estimate(&op, &value),
            );
        }
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].value.shape()
    }

    /// Order-of-magnitude FLOP count for one forward execution of
    /// `op`, from the operand shapes. Copies (gathers, concats, picks)
    /// count zero; transcendental activations count a flat 4 per
    /// element. Good enough to rank ops and compute achieved-FLOP
    /// rates in `trace_report` — not a cycle-accurate model.
    fn flop_estimate(&self, op: &Op, value: &Matrix) -> u64 {
        let out = value.len() as u64;
        let in_elems = |v: &Var| {
            let (r, c) = self.shape(*v);
            (r * c) as u64
        };
        match op {
            Op::Input | Op::Param(..) | Op::Gather(..) | Op::GatherVar(..) => 0,
            Op::ConcatCols(..) | Op::ConcatRows(..) | Op::PickPerRow(..) => 0,
            // m×k · k×n: one multiply + one add per output per k
            // (for MatMulT the shared dim is also `a`'s cols).
            Op::MatMul(a, _)
            | Op::MatMulT(a, _)
            | Op::MatMulParam(a, _)
            | Op::MatMulTParam(a, _) => 2 * self.shape(*a).1 as u64 * out,
            Op::Add(..) | Op::Sub(..) | Op::Mul(..) | Op::Scale(..) | Op::AddScalar(..) => out,
            Op::AddRowParam(..) => out,
            Op::Relu(..) | Op::LeakyRelu(..) => out,
            Op::Sigmoid(..) | Op::Tanh(..) | Op::Softplus(..) => 4 * out,
            // One multiply + one add per input element.
            Op::RowDot(a, _) => 2 * in_elems(a),
            // Two width-w dot products plus a two-logit log-softmax
            // (4 per logit, as `LogSoftmaxPick`) per decision.
            Op::PairLogp { src, rows, .. } => {
                rows.len() as u64 * (4 * self.shape(*src).1 as u64 + 8)
            }
            Op::SumAll(a) | Op::MeanAll(a) => in_elems(a),
            Op::SqSum(a) => 2 * in_elems(a),
            // exp + subtract + max/sum passes per element.
            Op::LogSoftmaxRows(a) => 5 * in_elems(a),
            // Same exp/sum work as a full log-softmax, minus the
            // full-matrix subtract pass.
            Op::LogSoftmaxPick(a, ..) => 4 * in_elems(a),
            Op::SpMM(sparse, _) => 2 * sparse.nnz() as u64 * value.cols() as u64,
            Op::BceWithLogits { logits, .. } => 6 * in_elems(logits),
            Op::MseMasked { pred, .. } => 3 * in_elems(pred),
        }
    }

    // ---- leaf constructors -------------------------------------------------

    /// Registers an external constant.
    pub fn input(&mut self, value: Matrix) -> Var {
        let _t = profile::fwd(OpKind::Input);
        self.push(value, Op::Input)
    }

    /// Brings a whole parameter matrix onto the tape.
    pub fn param(&mut self, id: ParamId) -> Var {
        let _t = profile::fwd(OpKind::Param);
        let value = self.pool.copy_of(self.params.get(id));
        self.push(value, Op::Param(id))
    }

    /// Embedding lookup: gathers `indices` rows of parameter `id`.
    /// A consecutive run of indices (the common "whole candidate
    /// range" case in the policy replay) is copied as one block.
    ///
    /// # Panics
    /// Panics if any index is not a row of the table.
    pub fn gather(&mut self, id: ParamId, indices: &[u32]) -> Var {
        let _t = profile::fwd(OpKind::Gather);
        let table = self.params.get(id);
        check_rows(indices, table.rows());
        let cols = table.cols();
        let mut value = self.pool.zeros(indices.len(), cols);
        if let Some(&start) = indices.first().filter(|_| is_consecutive(indices)) {
            let start = start as usize * cols;
            value
                .data_mut()
                .copy_from_slice(&table.data()[start..start + indices.len() * cols]);
        } else {
            for (r, &idx) in indices.iter().enumerate() {
                value
                    .row_slice_mut(r)
                    .copy_from_slice(table.row_slice(idx as usize));
            }
        }
        self.push(value, Op::Gather(id, indices.to_vec()))
    }

    /// Gathers `indices` rows of an existing node (e.g. propagated
    /// embeddings in a graph neural network).
    ///
    /// # Panics
    /// Panics if any index is not a row of `src`.
    pub fn gather_var(&mut self, src: Var, indices: &[u32]) -> Var {
        let _t = profile::fwd(OpKind::GatherVar);
        check_rows(indices, self.nodes[src.0].value.rows());
        let cols = self.nodes[src.0].value.cols();
        let mut value = self.pool.zeros(indices.len(), cols);
        let table = &self.nodes[src.0].value;
        for (r, &idx) in indices.iter().enumerate() {
            value
                .row_slice_mut(r)
                .copy_from_slice(table.row_slice(idx as usize));
        }
        self.push(value, Op::GatherVar(src, indices.to_vec()))
    }

    // ---- arithmetic --------------------------------------------------------

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let _t = profile::fwd(OpKind::MatMul);
        let (ar, _) = self.shape(a);
        let (_, bc) = self.shape(b);
        let mut value = self.pool.zeros(ar, bc);
        self.nodes[a.0]
            .value
            .matmul_into(&self.nodes[b.0].value, &mut value, kernel::threads());
        self.push(value, Op::MatMul(a, b))
    }

    /// `a * b^T`.
    pub fn matmul_t(&mut self, a: Var, b: Var) -> Var {
        let _t = profile::fwd(OpKind::MatMulT);
        let (ar, _) = self.shape(a);
        let (br, _) = self.shape(b);
        let mut value = self.pool.zeros(ar, br);
        self.nodes[a.0]
            .value
            .matmul_t_into(&self.nodes[b.0].value, &mut value, kernel::threads());
        self.push(value, Op::MatMulT(a, b))
    }

    /// `a * P` with parameter `p` used in place. Bit-equal to
    /// `matmul(a, param(p))`, but the weight never lands on the tape:
    /// no per-use copy, no extra node, and the backward sweep sends
    /// `dP = A^T G` straight into the [`GradStore`]. On the GRU/MLP
    /// hot path (thousands of tiny per-timestep matmuls) the removed
    /// `Param` traffic is a measurable share of the update step.
    pub fn matmul_param(&mut self, a: Var, p: ParamId) -> Var {
        let _t = profile::fwd(OpKind::MatMul);
        let (ar, _) = self.shape(a);
        let pm = self.params.get(p);
        let mut value = self.pool.zeros(ar, pm.cols());
        self.nodes[a.0]
            .value
            .matmul_into(pm, &mut value, kernel::threads());
        self.push(value, Op::MatMulParam(a, p))
    }

    /// `a * P^T` with parameter `p` used in place (fused like
    /// [`Graph::matmul_param`]; bit-equal to `matmul_t(a, param(p))`).
    pub fn matmul_t_param(&mut self, a: Var, p: ParamId) -> Var {
        let _t = profile::fwd(OpKind::MatMulT);
        let (ar, _) = self.shape(a);
        let pm = self.params.get(p);
        let mut value = self.pool.zeros(ar, pm.rows());
        self.nodes[a.0]
            .value
            .matmul_t_into(pm, &mut value, kernel::threads());
        self.push(value, Op::MatMulTParam(a, p))
    }

    /// `a + P` where `P` is a `1 x cols` parameter row broadcast over
    /// the rows of `a` (fused bias add; bit-equal to
    /// `add(a, param(p))`).
    pub fn add_row_param(&mut self, a: Var, p: ParamId) -> Var {
        let _t = profile::fwd(OpKind::Add);
        let (ar, ac) = self.shape(a);
        let pm = self.params.get(p);
        assert!(
            pm.rows() == 1 && pm.cols() == ac,
            "add_row_param broadcast mismatch: {ar}x{ac} + {}x{}",
            pm.rows(),
            pm.cols()
        );
        let mut m = self.pool.copy_of(&self.nodes[a.0].value);
        for r in 0..ar {
            for (x, &y) in m.row_slice_mut(r).iter_mut().zip(pm.data()) {
                *x += y;
            }
        }
        self.push(m, Op::AddRowParam(a, p))
    }

    /// Same-shape addition, or row-broadcast when `b` is `1 x cols`.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let _t = profile::fwd(OpKind::Add);
        let (ar, ac) = self.shape(a);
        let (br, bc) = self.shape(b);
        let value = if (ar, ac) == (br, bc) {
            let mut m = self.pool.copy_of(&self.nodes[a.0].value);
            m.axpy(1.0, &self.nodes[b.0].value);
            m
        } else {
            assert!(
                br == 1 && bc == ac,
                "add broadcast mismatch: {ar}x{ac} + {br}x{bc}"
            );
            let mut m = self.pool.copy_of(&self.nodes[a.0].value);
            let bvals = &self.nodes[b.0].value;
            for r in 0..ar {
                for (x, &y) in m.row_slice_mut(r).iter_mut().zip(bvals.data()) {
                    *x += y;
                }
            }
            m
        };
        self.push(value, Op::Add(a, b))
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let _t = profile::fwd(OpKind::Sub);
        assert_eq!(self.shape(a), self.shape(b), "sub shape mismatch");
        let mut m = self.pool.copy_of(&self.nodes[a.0].value);
        m.axpy(-1.0, &self.nodes[b.0].value);
        self.push(m, Op::Sub(a, b))
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let _t = profile::fwd(OpKind::Mul);
        assert_eq!(self.shape(a), self.shape(b), "mul shape mismatch");
        let (r, c) = self.shape(b);
        let value = self.pool.collect(
            r,
            c,
            self.nodes[a.0]
                .value
                .data()
                .iter()
                .zip(self.nodes[b.0].value.data())
                .map(|(&x, &y)| x * y),
        );
        self.push(value, Op::Mul(a, b))
    }

    /// Per-row dot products: a `rows x 1` column with
    /// `out[r] = Σ_k a[r, k] · b[r, k]`.
    ///
    /// Bit-equal to `matmul(mul(a, b), ones)` in value and gradients
    /// (DESIGN.md §5g): each row sums its products in ascending `k`
    /// through one accumulator starting at `+0.0` (the unfused form's
    /// `· 1.0` was exact), and the backward seeds each row with
    /// `0.0 + g[r]`, as the `G · onesᵀ` product did. The fused op skips
    /// the `rows x cols` product node, the `n = 1` kernel call and the
    /// dead adjoint of the constant ones column.
    pub fn row_dot(&mut self, a: Var, b: Var) -> Var {
        let _t = profile::fwd(OpKind::RowDot);
        assert_eq!(self.shape(a), self.shape(b), "row_dot shape mismatch");
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        let mut value = self.pool.zeros(av.rows(), 1);
        // `max(1)`: a zero-width operand has no elements, and every
        // row's empty sum is the `+0.0` already in place.
        let width = av.cols().max(1);
        let rows = av
            .data()
            .chunks_exact(width)
            .zip(bv.data().chunks_exact(width));
        for (out, (x, y)) in value.data_mut().iter_mut().zip(rows) {
            *out = x.iter().zip(y).fold(0.0f32, |acc, (&x, &y)| acc + x * y);
        }
        self.push(value, Op::RowDot(a, b))
    }

    /// BCBT's pair decisions in one node: for every decision `r`, the
    /// log-softmax over the two logits `⟨src[rows[r]], T[left[r]]⟩` and
    /// `⟨src[rows[r]], T[right[r]]⟩`, picked at `chosen[r]`, as a
    /// `K x 1` column. `src` and the parameter table `T` are read in
    /// place; only the `K x 2` logits and the per-row log-sum-exp are
    /// cached, and the backward writes `dT` straight into the
    /// [`GradStore`].
    ///
    /// Bit-equal in value and gradients to
    /// `log_softmax_pick(concat_cols(row_dot(dk, el), row_dot(dk, er)))`
    /// over `dk = gather_var(src, rows)`, `el = gather(T, left)` and
    /// `er = gather(T, right)` (DESIGN.md §5g): every expression below
    /// is the unfused op's, in the unfused order.
    ///
    /// # Panics
    /// Panics if the index slices differ in length, `src` and `T`
    /// differ in width, or any index is out of range (`chosen[r] < 2`).
    pub fn pair_logp(
        &mut self,
        src: Var,
        rows: &[u32],
        table: ParamId,
        left: &[u32],
        right: &[u32],
        chosen: &[u32],
    ) -> Var {
        let _t = profile::fwd(OpKind::PairLogp);
        let k = rows.len();
        assert!(
            left.len() == k && right.len() == k && chosen.len() == k,
            "pair_logp length mismatch"
        );
        let sv = &self.nodes[src.0].value;
        let tv = self.params.get(table);
        assert_eq!(sv.cols(), tv.cols(), "pair_logp width mismatch");
        check_rows(rows, sv.rows());
        check_rows(left, tv.rows());
        check_rows(right, tv.rows());
        check_cols(chosen, 2);
        // Pass 1, the logits: `row_dot`'s chain, ascending k from +0.0.
        let dot = |x: &[f32], y: &[f32]| x.iter().zip(y).fold(0.0f32, |acc, (&x, &y)| acc + x * y);
        let mut logits = Vec::with_capacity(2 * k);
        for ((&r, &l), &rt) in rows.iter().zip(left).zip(right) {
            let d = sv.row_slice(r as usize);
            logits.push(dot(d, tv.row_slice(l as usize)));
            logits.push(dot(d, tv.row_slice(rt as usize)));
        }
        // Pass 2, the pick: `log_softmax_pick`'s expressions verbatim.
        // Keeping the libm calls out of pass 1 changes no expression.
        let mut lse = Vec::with_capacity(k);
        let mut picked = self.pool.take(k);
        for (pair, &c) in logits.chunks_exact(2).zip(chosen) {
            let max = pair.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let ls = max + pair.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
            lse.push(ls);
            picked.push(pair[c as usize] - ls);
        }
        let op = Op::PairLogp {
            src,
            rows: rows.to_vec(),
            table,
            left: left.to_vec(),
            right: right.to_vec(),
            chosen: chosen.to_vec(),
            logits,
            lse,
        };
        self.push(Matrix::from_vec(k, 1, picked), op)
    }

    pub fn scale(&mut self, a: Var, alpha: f32) -> Var {
        let _t = profile::fwd(OpKind::Scale);
        let value = self.mapped(a, |x| x * alpha);
        self.push(value, Op::Scale(a, alpha))
    }

    pub fn add_scalar(&mut self, a: Var, beta: f32) -> Var {
        let _t = profile::fwd(OpKind::AddScalar);
        let value = self.mapped(a, |x| x + beta);
        self.push(value, Op::AddScalar(a))
    }

    /// Pool-backed elementwise map of a node's value.
    fn mapped(&mut self, a: Var, f: impl Fn(f32) -> f32) -> Matrix {
        let (r, c) = self.shape(a);
        self.pool
            .collect(r, c, self.nodes[a.0].value.data().iter().map(|&x| f(x)))
    }

    /// Pool-backed slice kernel over a node's value.
    fn mapped_into(&mut self, a: Var, kernel: fn(&[f32], &mut [f32])) -> Matrix {
        let (r, c) = self.shape(a);
        let mut value = self.pool.zeros(r, c);
        kernel(self.nodes[a.0].value.data(), value.data_mut());
        value
    }

    // ---- activations -------------------------------------------------------

    pub fn relu(&mut self, a: Var) -> Var {
        let _t = profile::fwd(OpKind::Relu);
        let value = self.mapped(a, |x| x.max(0.0));
        self.push(value, Op::Relu(a))
    }

    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        let _t = profile::fwd(OpKind::LeakyRelu);
        let value = self.mapped(a, |x| if x > 0.0 { x } else { slope * x });
        self.push(value, Op::LeakyRelu(a, slope))
    }

    pub fn sigmoid(&mut self, a: Var) -> Var {
        let _t = profile::fwd(OpKind::Sigmoid);
        let value = self.mapped_into(a, transcendental::sigmoid_into);
        self.push(value, Op::Sigmoid(a))
    }

    pub fn tanh(&mut self, a: Var) -> Var {
        let _t = profile::fwd(OpKind::Tanh);
        let value = self.mapped_into(a, transcendental::tanh_into);
        self.push(value, Op::Tanh(a))
    }

    /// Numerically-stable `ln(1 + e^x)`.
    pub fn softplus(&mut self, a: Var) -> Var {
        let _t = profile::fwd(OpKind::Softplus);
        let value = self.mapped(a, stable_softplus);
        self.push(value, Op::Softplus(a))
    }

    // ---- structure ---------------------------------------------------------

    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let _t = profile::fwd(OpKind::ConcatCols);
        let (ar, ac) = self.shape(a);
        let (br, bc) = self.shape(b);
        assert_eq!(ar, br, "concat_cols row mismatch");
        let mut value = self.pool.zeros(ar, ac + bc);
        for r in 0..ar {
            value.row_slice_mut(r)[..ac].copy_from_slice(self.nodes[a.0].value.row_slice(r));
            value.row_slice_mut(r)[ac..].copy_from_slice(self.nodes[b.0].value.row_slice(r));
        }
        self.push(value, Op::ConcatCols(a, b))
    }

    /// Stacks `parts` row-wise, in order, as one node. For distinct
    /// parts, bit-equal to the chain of binary stacks it replaces, in
    /// value and gradients: the backward hands each part its own row
    /// block.
    ///
    /// # Panics
    /// Panics if `parts` is empty or the parts differ in width.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        let _t = profile::fwd(OpKind::ConcatRows);
        let (_, cols) = self.shape(*parts.first().expect("concat_rows needs a part"));
        let mut rows = 0;
        for &p in parts {
            let (pr, pc) = self.shape(p);
            assert_eq!(pc, cols, "concat_rows col mismatch");
            rows += pr;
        }
        let mut data = self.pool.take(rows * cols);
        for &p in parts {
            data.extend_from_slice(self.nodes[p.0].value.data());
        }
        self.push(
            Matrix::from_vec(rows, cols, data),
            Op::ConcatRows(parts.to_vec()),
        )
    }

    // ---- reductions & losses ----------------------------------------------

    /// `1 x 1` sum of all entries.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let _t = profile::fwd(OpKind::SumAll);
        let s = self.nodes[a.0].value.sum();
        self.push(Matrix::from_vec(1, 1, vec![s]), Op::SumAll(a))
    }

    /// `1 x 1` mean of all entries.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let _t = profile::fwd(OpKind::MeanAll);
        let v = &self.nodes[a.0].value;
        let s = v.sum() / v.len() as f32;
        self.push(Matrix::from_vec(1, 1, vec![s]), Op::MeanAll(a))
    }

    /// `1 x 1` sum of squared entries.
    pub fn sq_sum(&mut self, a: Var) -> Var {
        let _t = profile::fwd(OpKind::SqSum);
        let s = self.nodes[a.0].value.sq_norm();
        self.push(Matrix::from_vec(1, 1, vec![s]), Op::SqSum(a))
    }

    /// Row-wise log-softmax (stable).
    pub fn log_softmax_rows(&mut self, a: Var) -> Var {
        let _t = profile::fwd(OpKind::LogSoftmaxRows);
        let mut out = self.pool.copy_of(&self.nodes[a.0].value);
        for r in 0..out.rows() {
            let row = out.row_slice_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = max + row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
            for x in row {
                *x -= lse;
            }
        }
        self.push(out, Op::LogSoftmaxRows(a))
    }

    /// Picks one entry per row: `out[r, 0] = a[r, idx[r]]`.
    pub fn pick_per_row(&mut self, a: Var, indices: &[u32]) -> Var {
        let _t = profile::fwd(OpKind::PickPerRow);
        let v = &self.nodes[a.0].value;
        assert_eq!(v.rows(), indices.len(), "pick_per_row length mismatch");
        check_cols(indices, v.cols());
        let it = indices
            .iter()
            .enumerate()
            .map(|(r, &c)| v.at(r, c as usize));
        let value = self.pool.collect(indices.len(), 1, it);
        self.push(value, Op::PickPerRow(a, indices.to_vec()))
    }

    /// `pick_per_row(log_softmax_rows(a), indices)` fused. Bit-equal
    /// to the two-op composition — the max/log-sum-exp expressions are
    /// identical — but only the picked `rows x 1` column is
    /// materialized instead of the full `rows x cols` log-prob matrix
    /// (which, for logits over the whole item catalog, is by far the
    /// largest tensor the PPO replay builds).
    pub fn log_softmax_pick(&mut self, a: Var, indices: &[u32]) -> Var {
        let _t = profile::fwd(OpKind::LogSoftmaxRows);
        let v = &self.nodes[a.0].value;
        assert_eq!(v.rows(), indices.len(), "log_softmax_pick length mismatch");
        check_cols(indices, v.cols());
        let mut lse = Vec::with_capacity(v.rows());
        for r in 0..v.rows() {
            let row = v.row_slice(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            lse.push(max + row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln());
        }
        let it = indices
            .iter()
            .enumerate()
            .map(|(r, &c)| v.at(r, c as usize) - lse[r]);
        let value = self.pool.collect(indices.len(), 1, it);
        self.push(value, Op::LogSoftmaxPick(a, indices.to_vec(), lse))
    }

    /// `sparse * dense`; gradient flows only to the dense operand.
    pub fn spmm(&mut self, sparse: Arc<Csr>, dense: Var) -> Var {
        let _t = profile::fwd(OpKind::SpMM);
        let value = sparse.spmm(&self.nodes[dense.0].value);
        self.push(value, Op::SpMM(sparse, dense))
    }

    /// Mean binary cross-entropy with logits over entries where
    /// `mask != 0` (mask entries act as weights).
    pub fn bce_with_logits(&mut self, logits: Var, targets: Matrix, mask: Matrix) -> Var {
        let _t = profile::fwd(OpKind::BceWithLogits);
        let x = &self.nodes[logits.0].value;
        assert_eq!(x.shape(), targets.shape(), "bce target shape");
        assert_eq!(x.shape(), mask.shape(), "bce mask shape");
        let total_mask: f32 = mask.sum();
        let denom = if total_mask > 0.0 { total_mask } else { 1.0 };
        let mut loss = 0.0;
        for ((&xv, &yv), &mv) in x.data().iter().zip(targets.data()).zip(mask.data()) {
            if mv != 0.0 {
                // max(x,0) - x*y + ln(1 + e^{-|x|})
                loss += mv * (xv.max(0.0) - xv * yv + stable_softplus(-xv.abs()));
            }
        }
        let value = Matrix::from_vec(1, 1, vec![loss / denom]);
        self.push(
            value,
            Op::BceWithLogits {
                logits,
                targets,
                mask,
            },
        )
    }

    /// Mean squared error over entries where `mask != 0`.
    pub fn mse_masked(&mut self, pred: Var, targets: Matrix, mask: Matrix) -> Var {
        let _t = profile::fwd(OpKind::MseMasked);
        let x = &self.nodes[pred.0].value;
        assert_eq!(x.shape(), targets.shape(), "mse target shape");
        assert_eq!(x.shape(), mask.shape(), "mse mask shape");
        let total_mask: f32 = mask.sum();
        let denom = if total_mask > 0.0 { total_mask } else { 1.0 };
        let mut loss = 0.0;
        for ((&xv, &yv), &mv) in x.data().iter().zip(targets.data()).zip(mask.data()) {
            if mv != 0.0 {
                let d = xv - yv;
                loss += mv * d * d;
            }
        }
        let value = Matrix::from_vec(1, 1, vec![loss / denom]);
        self.push(
            value,
            Op::MseMasked {
                pred,
                targets,
                mask,
            },
        )
    }

    // ---- backward ----------------------------------------------------------

    /// Order-of-magnitude FLOP count for one backward execution of
    /// node `i` (same spirit as [`Graph::flop_estimate`]): matmul-family
    /// ops cost two products (2x forward), elementwise VJPs cost a few
    /// ops per input element, copies and scatters count zero.
    fn bwd_flop_estimate(&self, i: usize) -> u64 {
        let out = self.nodes[i].value.len() as u64;
        let in_elems = |v: &Var| {
            let (r, c) = self.shape(*v);
            (r * c) as u64
        };
        match &self.nodes[i].op {
            Op::Input | Op::Param(..) | Op::Gather(..) | Op::GatherVar(..) => 0,
            Op::ConcatCols(..) | Op::ConcatRows(..) => 0,
            // dA and dB are each a full product over the same three
            // dims as the forward: twice the forward FLOPs.
            Op::MatMul(a, _)
            | Op::MatMulT(a, _)
            | Op::MatMulParam(a, _)
            | Op::MatMulTParam(a, _) => 4 * self.shape(*a).1 as u64 * out,
            Op::Add(..) | Op::Sub(..) | Op::Scale(..) | Op::AddScalar(..) => out,
            Op::AddRowParam(..) => out,
            Op::Mul(..) => 2 * out,
            // One seeded multiply per element of each operand's adjoint.
            Op::RowDot(a, _) => 4 * in_elems(a),
            // Per decision: two seeds (exp + multiply each), two table
            // scatters (2w each) and the two-term `src` update (4w).
            Op::PairLogp { src, rows, .. } => {
                rows.len() as u64 * (8 * self.shape(*src).1 as u64 + 8)
            }
            Op::Relu(..) | Op::LeakyRelu(..) => out,
            Op::Sigmoid(..) | Op::Tanh(..) => 3 * out,
            Op::Softplus(..) => 4 * out,
            Op::SumAll(a) | Op::MeanAll(a) => in_elems(a),
            Op::SqSum(a) => 2 * in_elems(a),
            // exp + multiply + subtract per input element (+ row sums).
            Op::LogSoftmaxRows(a) | Op::LogSoftmaxPick(a, ..) => 4 * in_elems(a),
            // Sparse row-select scatter: one add per picked entry.
            Op::PickPerRow(..) => 2 * out,
            Op::SpMM(sparse, _) => 2 * sparse.nnz() as u64 * self.nodes[i].value.cols() as u64,
            Op::BceWithLogits { logits, .. } => 5 * in_elems(logits),
            Op::MseMasked { pred, .. } => 3 * in_elems(pred),
        }
    }

    /// Reverse sweep from the scalar `root`, accumulating parameter
    /// gradients into `grads`.
    ///
    /// # Panics
    /// Panics if `root` is not `1 x 1`.
    pub fn backward(&mut self, root: Var, grads: &mut GradStore) {
        assert_eq!(self.shape(root), (1, 1), "backward root must be scalar");
        self.backward_weighted(root, 1.0, grads);
    }

    /// Like [`Graph::backward`] but seeds the root gradient with
    /// `weight` (used for per-example loss weighting such as PPO
    /// advantages).
    ///
    /// Adjoint buffers come from (and return to) this graph's pool, so
    /// repeated sweeps over arena-built graphs run allocation-free in
    /// the steady state.
    pub fn backward_weighted(&mut self, root: Var, weight: f32, grads: &mut GradStore) {
        assert_eq!(self.shape(root), (1, 1), "backward root must be scalar");
        // Detach the scratch from `self` so the sweep can hold `&self`
        // node borrows alongside mutable pool/adjoint state.
        let mut adj = std::mem::take(&mut self.adj);
        let mut pool = std::mem::take(&mut self.pool);
        adj.clear();
        adj.resize_with(self.nodes.len(), || None);
        adj[root.0] = Some(Adjoint::Dense(pool.full(1, 1, weight)));
        let threads = kernel::threads();
        // Lazily transposed parameter matrices, shared by every
        // `MatMulParam` node in this sweep: recurrent weights are
        // multiplied `T x gates` times per episode, and re-transposing
        // the same constant matrix each time was a visible slice of the
        // backward. Params are immutable for the whole sweep, so one
        // transpose each is exact.
        let mut tposed: Vec<Option<Vec<f32>>> = Vec::new();
        tposed.resize_with(self.params.len(), || None);

        for i in (0..=root.0).rev() {
            let Some(g) = adj[i].take() else { continue };
            let kind = self.nodes[i].op.kind();
            let _t = profile::bwd(kind);
            if profile::enabled() {
                profile::record_bwd_dims(kind, self.bwd_flop_estimate(i));
            }
            // Sparse-adjoint fast paths first; everything else works on
            // a dense gradient.
            let g: Matrix = match (&self.nodes[i].op, g) {
                (Op::PickPerRow(a, indices), g) => {
                    // The upstream gradient is `rows x 1`; forwarding it
                    // as a RowSelect avoids zero-filling (and later
                    // scanning) a dense `rows x cols` matrix.
                    let (rows, cols) = self.shape(*a);
                    let val = g.into_dense(&mut pool).into_vec();
                    accumulate(
                        &mut adj,
                        *a,
                        Adjoint::RowSelect {
                            rows,
                            cols,
                            idx: indices.clone(),
                            val,
                        },
                        &mut pool,
                    );
                    continue;
                }
                (Op::LogSoftmaxRows(a), Adjoint::RowSelect { idx, val, .. }) => {
                    // dx = g - softmax(x) * rowsum(g); with one entry
                    // per row, rowsum(g[r]) is just val[r], so the whole
                    // VJP is one write pass plus a point update.
                    let src = *a;
                    let y = &self.nodes[i].value; // log-probs
                    let (rows, cols) = y.shape();
                    let mut buf = pool.take(rows * cols);
                    for (r, &gv) in val.iter().enumerate() {
                        buf.extend(y.row_slice(r).iter().map(|&lp| -(lp.exp() * gv)));
                    }
                    let mut da = Matrix::from_vec(rows, cols, buf);
                    for (r, (&c, &gv)) in idx.iter().zip(&val).enumerate() {
                        let cur = da.at(r, c as usize);
                        da.set(r, c as usize, cur + gv);
                    }
                    pool.put(val);
                    accumulate(&mut adj, src, Adjoint::Dense(da), &mut pool);
                    continue;
                }
                (_, g) => g.into_dense(&mut pool),
            };
            match &self.nodes[i].op {
                Op::Input => pool.recycle(g),
                Op::Param(id) => {
                    grads.get_mut(*id).axpy(1.0, &g);
                    pool.recycle(g);
                }
                Op::Gather(id, indices) => {
                    // Consecutive indices scatter-add as one block pass
                    // (same element order as the row loop, so the same
                    // bits land either way). Only the gathered rows are
                    // written, so the store tracks them row-sparsely.
                    let table = grads.rows_mut(*id, indices);
                    if let Some(&start) = indices.first().filter(|_| is_consecutive(indices)) {
                        let cols = g.cols();
                        let start = start as usize * cols;
                        let dst = &mut table.data_mut()[start..start + indices.len() * cols];
                        for (d, &s) in dst.iter_mut().zip(g.data()) {
                            *d += s;
                        }
                    } else {
                        for (r, &idx) in indices.iter().enumerate() {
                            let dst = table.row_slice_mut(idx as usize);
                            for (d, &s) in dst.iter_mut().zip(g.row_slice(r)) {
                                *d += s;
                            }
                        }
                    }
                    pool.recycle(g);
                }
                Op::GatherVar(src, indices) => {
                    let (sr, sc) = self.shape(*src);
                    let mut ds = pool.zeros(sr, sc);
                    for (r, &idx) in indices.iter().enumerate() {
                        let dst = ds.row_slice_mut(idx as usize);
                        for (d, &s) in dst.iter_mut().zip(g.row_slice(r)) {
                            *d += s;
                        }
                    }
                    accumulate(&mut adj, *src, Adjoint::Dense(ds), &mut pool);
                    pool.recycle(g);
                }
                Op::MatMul(a, b) => {
                    // dA = G * B^T ; dB = A^T * G
                    let av = &self.nodes[a.0].value;
                    let bv = &self.nodes[b.0].value;
                    let mut da = pool.zeros(g.rows(), bv.rows());
                    g.matmul_t_into(bv, &mut da, threads);
                    let mut db = pool.zeros(av.cols(), g.cols());
                    av.t_matmul_into(&g, &mut db, threads);
                    accumulate(&mut adj, *a, Adjoint::Dense(da), &mut pool);
                    accumulate(&mut adj, *b, Adjoint::Dense(db), &mut pool);
                    pool.recycle(g);
                }
                Op::MatMulT(a, b) => {
                    // y = A * B^T: dA = G * B ; dB = G^T * A
                    let av = &self.nodes[a.0].value;
                    let bv = &self.nodes[b.0].value;
                    let mut da = pool.zeros(g.rows(), bv.cols());
                    g.matmul_into(bv, &mut da, threads);
                    let mut db = pool.zeros(g.cols(), av.cols());
                    g.t_matmul_into(av, &mut db, threads);
                    accumulate(&mut adj, *a, Adjoint::Dense(da), &mut pool);
                    accumulate(&mut adj, *b, Adjoint::Dense(db), &mut pool);
                    pool.recycle(g);
                }
                Op::MatMulParam(a, pid) => {
                    // Same products as the MatMul arm with B = P, but
                    // dP skips the tape and lands in the grad store
                    // (bit-identical: the param node it replaces had
                    // exactly this one consumer). dA = G * P^T runs
                    // against the sweep-cached transpose — the same
                    // materialize-then-multiply `matmul_t` performs,
                    // minus the per-call transpose.
                    let av = &self.nodes[a.0].value;
                    let pv = self.params.get(*pid);
                    let pt = tposed[pid.0].get_or_insert_with(|| {
                        let mut buf = pool.take(pv.len());
                        kernel::transpose_into(pv.data(), pv.rows(), pv.cols(), &mut buf);
                        buf
                    });
                    let mut da = pool.zeros(g.rows(), pv.rows());
                    kernel::matmul(
                        g.data(),
                        g.rows(),
                        g.cols(),
                        pt,
                        pv.rows(),
                        da.data_mut(),
                        threads,
                    );
                    let mut dp = pool.zeros(av.cols(), g.cols());
                    av.t_matmul_into(&g, &mut dp, threads);
                    grads.get_mut(*pid).axpy(1.0, &dp);
                    pool.recycle(dp);
                    accumulate(&mut adj, *a, Adjoint::Dense(da), &mut pool);
                    pool.recycle(g);
                }
                Op::MatMulTParam(a, pid) => {
                    // y = A * P^T: dA = G * P ; dP = G^T * A
                    let av = &self.nodes[a.0].value;
                    let pv = self.params.get(*pid);
                    let mut da = pool.zeros(g.rows(), pv.cols());
                    g.matmul_into(pv, &mut da, threads);
                    let mut dp = pool.zeros(g.cols(), av.cols());
                    g.t_matmul_into(av, &mut dp, threads);
                    grads.get_mut(*pid).axpy(1.0, &dp);
                    pool.recycle(dp);
                    accumulate(&mut adj, *a, Adjoint::Dense(da), &mut pool);
                    pool.recycle(g);
                }
                Op::AddRowParam(a, pid) => {
                    // Mirrors the two Add paths exactly: a 1-row
                    // gradient is added as-is (preserving `-0.0` bits a
                    // column-sum would launder), taller ones column-sum.
                    if g.rows() == 1 {
                        grads.get_mut(*pid).axpy(1.0, &g);
                    } else {
                        let mut db = pool.zeros(1, g.cols());
                        for r in 0..g.rows() {
                            for (d, &s) in db.data_mut().iter_mut().zip(g.row_slice(r)) {
                                *d += s;
                            }
                        }
                        grads.get_mut(*pid).axpy(1.0, &db);
                        pool.recycle(db);
                    }
                    accumulate(&mut adj, *a, Adjoint::Dense(g), &mut pool);
                }
                Op::Add(a, b) => {
                    let (br, bc) = self.shape(*b);
                    if (br, bc) == g.shape() {
                        let db = pool.copy_of(&g);
                        accumulate(&mut adj, *b, Adjoint::Dense(db), &mut pool);
                    } else {
                        // b was a broadcast row: column-sum the gradient.
                        let mut db = pool.zeros(1, bc);
                        for r in 0..g.rows() {
                            for (d, &s) in db.data_mut().iter_mut().zip(g.row_slice(r)) {
                                *d += s;
                            }
                        }
                        accumulate(&mut adj, *b, Adjoint::Dense(db), &mut pool);
                    }
                    accumulate(&mut adj, *a, Adjoint::Dense(g), &mut pool);
                }
                Op::Sub(a, b) => {
                    let mut db = pool.copy_of(&g);
                    db.scale_inplace(-1.0);
                    accumulate(&mut adj, *b, Adjoint::Dense(db), &mut pool);
                    accumulate(&mut adj, *a, Adjoint::Dense(g), &mut pool);
                }
                Op::Mul(a, b) => {
                    let (r, c) = g.shape();
                    let da = pool.collect(
                        r,
                        c,
                        g.data()
                            .iter()
                            .zip(self.nodes[b.0].value.data())
                            .map(|(&gv, &bv)| gv * bv),
                    );
                    let db = pool.collect(
                        r,
                        c,
                        g.data()
                            .iter()
                            .zip(self.nodes[a.0].value.data())
                            .map(|(&gv, &av)| gv * av),
                    );
                    accumulate(&mut adj, *a, Adjoint::Dense(da), &mut pool);
                    accumulate(&mut adj, *b, Adjoint::Dense(db), &mut pool);
                    pool.recycle(g);
                }
                Op::RowDot(a, b) => {
                    // The unfused backward, replayed: `G · onesᵀ` seeds
                    // every element of row r with `0.0 + g[r]` (a k = 1
                    // chain from +0.0, which also maps -0.0 to +0.0),
                    // then the `Mul` arm scales by the other operand.
                    let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
                    let (r, c) = av.shape();
                    let seeded = |other: &Matrix, pool: &mut BufferPool| {
                        let mut out = pool.zeros(r, c);
                        // `max(1)`: a zero-width operand has no elements.
                        let width = c.max(1);
                        let rows = out
                            .data_mut()
                            .chunks_exact_mut(width)
                            .zip(other.data().chunks_exact(width));
                        for ((o, x), &gv) in rows.zip(g.data()) {
                            let gr = 0.0 + gv;
                            for (o, &x) in o.iter_mut().zip(x) {
                                *o = gr * x;
                            }
                        }
                        out
                    };
                    let da = seeded(bv, &mut pool);
                    let db = seeded(av, &mut pool);
                    accumulate(&mut adj, *a, Adjoint::Dense(da), &mut pool);
                    accumulate(&mut adj, *b, Adjoint::Dense(db), &mut pool);
                    pool.recycle(g);
                }
                Op::PairLogp {
                    src,
                    rows,
                    table,
                    left,
                    right,
                    chosen,
                    logits,
                    lse,
                } => {
                    // The unfused backward, replayed. `LogSoftmaxPick`
                    // seeds each logit with `-(lp.exp() * g)` and adds
                    // `g` at the pick; `RowDot` seeds with `0.0 + da`.
                    // `seeds[2r..2r + 2]` = `[s_l, s_r]`.
                    let mut seeds = pool.take(logits.len());
                    for ((pair, &ls), (&c, &gv)) in logits
                        .chunks_exact(2)
                        .zip(lse)
                        .zip(chosen.iter().zip(g.data()))
                    {
                        let mut da = [-((pair[0] - ls).exp() * gv), -((pair[1] - ls).exp() * gv)];
                        da[c as usize] += gv;
                        seeds.push(0.0 + da[0]);
                        seeds.push(0.0 + da[1]);
                    }
                    let sv = &self.nodes[src.0].value;
                    let tv = self.params.get(*table);
                    // dT: the `right` gather ran after the `left` one,
                    // so its scatter comes first in the reverse sweep.
                    for (side, idx) in [(1, right), (0, left)] {
                        let dt = grads.rows_mut(*table, idx);
                        for ((s, &r), &t) in seeds.chunks_exact(2).zip(rows).zip(idx) {
                            let d = sv.row_slice(r as usize);
                            for (o, &x) in dt.row_slice_mut(t as usize).iter_mut().zip(d) {
                                *o += s[side] * x;
                            }
                        }
                    }
                    // dsrc: the `lr` term filled `dk`'s slot, `axpy`
                    // added the `ll` term, and `GatherVar` scattered the
                    // sum into a zero-filled adjoint.
                    let mut ds = pool.zeros(sv.rows(), sv.cols());
                    for ((s, &r), (&l, &rt)) in
                        seeds.chunks_exact(2).zip(rows).zip(left.iter().zip(right))
                    {
                        let (a, b) = (tv.row_slice(l as usize), tv.row_slice(rt as usize));
                        for ((o, &a), &b) in ds.row_slice_mut(r as usize).iter_mut().zip(a).zip(b) {
                            *o += s[1] * b + 1.0 * (s[0] * a);
                        }
                    }
                    pool.put(seeds);
                    accumulate(&mut adj, *src, Adjoint::Dense(ds), &mut pool);
                    pool.recycle(g);
                }
                Op::Scale(a, alpha) => {
                    let mut da = g;
                    da.scale_inplace(*alpha);
                    accumulate(&mut adj, *a, Adjoint::Dense(da), &mut pool);
                }
                Op::AddScalar(a) => {
                    accumulate(&mut adj, *a, Adjoint::Dense(g), &mut pool);
                }
                Op::Relu(a) => {
                    let (r, c) = g.shape();
                    let da = pool.collect(
                        r,
                        c,
                        g.data()
                            .iter()
                            .zip(self.nodes[a.0].value.data())
                            .map(|(&gv, &xv)| if xv > 0.0 { gv } else { 0.0 }),
                    );
                    accumulate(&mut adj, *a, Adjoint::Dense(da), &mut pool);
                    pool.recycle(g);
                }
                Op::LeakyRelu(a, slope) => {
                    let (r, c) = g.shape();
                    let da = pool.collect(
                        r,
                        c,
                        g.data()
                            .iter()
                            .zip(self.nodes[a.0].value.data())
                            .map(|(&gv, &xv)| if xv > 0.0 { gv } else { slope * gv }),
                    );
                    accumulate(&mut adj, *a, Adjoint::Dense(da), &mut pool);
                    pool.recycle(g);
                }
                Op::Sigmoid(a) => {
                    let (r, c) = g.shape();
                    let da = pool.collect(
                        r,
                        c,
                        g.data()
                            .iter()
                            .zip(self.nodes[i].value.data())
                            .map(|(&gv, &yv)| gv * yv * (1.0 - yv)),
                    );
                    accumulate(&mut adj, *a, Adjoint::Dense(da), &mut pool);
                    pool.recycle(g);
                }
                Op::Tanh(a) => {
                    let (r, c) = g.shape();
                    let da = pool.collect(
                        r,
                        c,
                        g.data()
                            .iter()
                            .zip(self.nodes[i].value.data())
                            .map(|(&gv, &yv)| gv * (1.0 - yv * yv)),
                    );
                    accumulate(&mut adj, *a, Adjoint::Dense(da), &mut pool);
                    pool.recycle(g);
                }
                Op::Softplus(a) => {
                    let (r, c) = g.shape();
                    let da = pool.collect(
                        r,
                        c,
                        g.data()
                            .iter()
                            .zip(self.nodes[a.0].value.data())
                            .map(|(&gv, &xv)| gv * stable_sigmoid(xv)),
                    );
                    accumulate(&mut adj, *a, Adjoint::Dense(da), &mut pool);
                    pool.recycle(g);
                }
                Op::ConcatCols(a, b) => {
                    let (ar, ac) = self.shape(*a);
                    let (_, bc) = self.shape(*b);
                    let mut da = pool.zeros(ar, ac);
                    let mut db = pool.zeros(ar, bc);
                    for r in 0..ar {
                        da.row_slice_mut(r).copy_from_slice(&g.row_slice(r)[..ac]);
                        db.row_slice_mut(r).copy_from_slice(&g.row_slice(r)[ac..]);
                    }
                    accumulate(&mut adj, *a, Adjoint::Dense(da), &mut pool);
                    accumulate(&mut adj, *b, Adjoint::Dense(db), &mut pool);
                    pool.recycle(g);
                }
                Op::ConcatRows(parts) => {
                    let mut start = 0;
                    for &p in parts {
                        let (pr, pc) = self.shape(p);
                        let mut buf = pool.take(pr * pc);
                        buf.extend_from_slice(&g.data()[start..start + pr * pc]);
                        start += pr * pc;
                        accumulate(
                            &mut adj,
                            p,
                            Adjoint::Dense(Matrix::from_vec(pr, pc, buf)),
                            &mut pool,
                        );
                    }
                    pool.recycle(g);
                }
                Op::SumAll(a) => {
                    let (ar, ac) = self.shape(*a);
                    let da = pool.full(ar, ac, g.at(0, 0));
                    accumulate(&mut adj, *a, Adjoint::Dense(da), &mut pool);
                    pool.recycle(g);
                }
                Op::MeanAll(a) => {
                    let (ar, ac) = self.shape(*a);
                    let scale = g.at(0, 0) / (ar * ac) as f32;
                    let da = pool.full(ar, ac, scale);
                    accumulate(&mut adj, *a, Adjoint::Dense(da), &mut pool);
                    pool.recycle(g);
                }
                Op::SqSum(a) => {
                    let mut da = pool.copy_of(&self.nodes[a.0].value);
                    da.scale_inplace(2.0 * g.at(0, 0));
                    accumulate(&mut adj, *a, Adjoint::Dense(da), &mut pool);
                    pool.recycle(g);
                }
                Op::LogSoftmaxRows(a) => {
                    // dx = g - softmax(x) * rowsum(g)
                    let y = &self.nodes[i].value; // log-probs
                    let mut da = pool.copy_of(&g);
                    for r in 0..da.rows() {
                        let gsum: f32 = g.row_slice(r).iter().sum();
                        for (d, &lp) in da.row_slice_mut(r).iter_mut().zip(y.row_slice(r)) {
                            *d -= lp.exp() * gsum;
                        }
                    }
                    accumulate(&mut adj, *a, Adjoint::Dense(da), &mut pool);
                    pool.recycle(g);
                }
                Op::LogSoftmaxPick(a, idx, lse) => {
                    // Mirrors the RowSelect VJP of the unfused
                    // PickPerRow -> LogSoftmaxRows chain bit-for-bit:
                    // `x - lse` reproduces the stored log-prob bits, so
                    // `-(lp.exp() * gv)` and the picked-entry add are
                    // identical expressions over identical inputs.
                    let src = *a;
                    let xv = &self.nodes[a.0].value;
                    let (rows, cols) = xv.shape();
                    let mut buf = pool.take(rows * cols);
                    for (r, &ls) in lse.iter().enumerate() {
                        let gv = g.at(r, 0);
                        buf.extend(xv.row_slice(r).iter().map(|&x| -((x - ls).exp() * gv)));
                    }
                    let mut da = Matrix::from_vec(rows, cols, buf);
                    for (r, &c) in idx.iter().enumerate() {
                        let gv = g.at(r, 0);
                        let cur = da.at(r, c as usize);
                        da.set(r, c as usize, cur + gv);
                    }
                    accumulate(&mut adj, src, Adjoint::Dense(da), &mut pool);
                    pool.recycle(g);
                }
                // Handled by the RowSelect fast path above.
                Op::PickPerRow(..) => unreachable!("PickPerRow backward is sparse"),
                Op::SpMM(sparse, dense) => {
                    let dd = sparse.t_spmm(&g);
                    accumulate(&mut adj, *dense, Adjoint::Dense(dd), &mut pool);
                    pool.recycle(g);
                }
                Op::BceWithLogits {
                    logits,
                    targets,
                    mask,
                } => {
                    let x = &self.nodes[logits.0].value;
                    let total_mask: f32 = mask.sum();
                    let denom = if total_mask > 0.0 { total_mask } else { 1.0 };
                    let scale = g.at(0, 0) / denom;
                    let da = pool.collect(
                        x.rows(),
                        x.cols(),
                        x.data().iter().zip(targets.data()).zip(mask.data()).map(
                            |((&xv, &yv), &mv)| {
                                if mv != 0.0 {
                                    scale * mv * (stable_sigmoid(xv) - yv)
                                } else {
                                    0.0
                                }
                            },
                        ),
                    );
                    accumulate(&mut adj, *logits, Adjoint::Dense(da), &mut pool);
                    pool.recycle(g);
                }
                Op::MseMasked {
                    pred,
                    targets,
                    mask,
                } => {
                    let x = &self.nodes[pred.0].value;
                    let total_mask: f32 = mask.sum();
                    let denom = if total_mask > 0.0 { total_mask } else { 1.0 };
                    let scale = 2.0 * g.at(0, 0) / denom;
                    let da = pool.collect(
                        x.rows(),
                        x.cols(),
                        x.data().iter().zip(targets.data()).zip(mask.data()).map(
                            |((&xv, &yv), &mv)| {
                                if mv != 0.0 {
                                    scale * mv * (xv - yv)
                                } else {
                                    0.0
                                }
                            },
                        ),
                    );
                    accumulate(&mut adj, *pred, Adjoint::Dense(da), &mut pool);
                    pool.recycle(g);
                }
            }
        }
        // Park the transposed-weight scratch for the next sweep.
        for buf in tposed.into_iter().flatten() {
            pool.put(buf);
        }
        // All slots are `None` again; keep both for their capacity.
        self.adj = adj;
        self.pool = pool;
    }
}

/// Folds `g` into node `v`'s pending adjoint. First gradient in wins
/// the slot as-is (sparse stays sparse); a second densifies and sums —
/// the dense accumulation order matches the pre-pool implementation
/// (existing += incoming), so results are bit-identical.
fn accumulate(adj: &mut [Option<Adjoint>], v: Var, g: Adjoint, pool: &mut BufferPool) {
    let merged = match (adj[v.0].take(), g) {
        (None, g) => g,
        (Some(cur), g) => {
            let mut dense = cur.into_dense(pool);
            add_adjoint(&mut dense, g, pool);
            Adjoint::Dense(dense)
        }
    };
    adj[v.0] = Some(merged);
}

fn add_adjoint(dense: &mut Matrix, g: Adjoint, pool: &mut BufferPool) {
    match g {
        Adjoint::Dense(m) => {
            dense.axpy(1.0, &m);
            pool.recycle(m);
        }
        Adjoint::RowSelect { idx, val, .. } => {
            for (r, (&c, &v)) in idx.iter().zip(&val).enumerate() {
                let cur = dense.at(r, c as usize);
                dense.set(r, c as usize, cur + v);
            }
            pool.put(val);
        }
    }
}

/// Numerically stable logistic function.
#[inline]
pub fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable `ln(1 + e^x)`.
#[inline]
pub fn stable_softplus(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else if x < -20.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}
