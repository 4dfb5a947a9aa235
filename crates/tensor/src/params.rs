//! Trainable parameter storage shared by the autodiff graph and the
//! optimizers. Parameters live outside the per-step [`crate::Graph`] so a
//! fresh graph can be built for every forward pass without copying
//! weights.

use rand::Rng;

use crate::matrix::Matrix;

/// Handle to one parameter matrix inside a [`ParamSet`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Index of the parameter within its [`ParamSet`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// A named collection of trainable matrices.
#[derive(Clone, Debug, Default)]
pub struct ParamSet {
    entries: Vec<Matrix>,
    names: Vec<String>,
}

impl ParamSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter with an explicit initial value.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.entries.push(value);
        self.names.push(name.into());
        ParamId(self.entries.len() - 1)
    }

    /// Registers a Xavier-initialized `fan_in x fan_out` weight.
    pub fn add_xavier(
        &mut self,
        name: impl Into<String>,
        fan_in: usize,
        fan_out: usize,
        rng: &mut impl Rng,
    ) -> ParamId {
        self.add(name, Matrix::xavier(fan_in, fan_out, rng))
    }

    /// Registers a zero-initialized `1 x n` bias row.
    pub fn add_bias(&mut self, name: impl Into<String>, n: usize) -> ParamId {
        self.add(name, Matrix::zeros(1, n))
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.entries[id.0]
    }

    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.entries[id.0]
    }

    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates `(id, matrix)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, m)| (ParamId(i), m))
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.entries.iter().map(Matrix::len).sum()
    }

    /// True if any parameter contains NaN/inf (training-loop guard).
    pub fn has_non_finite(&self) -> bool {
        self.entries.iter().any(Matrix::has_non_finite)
    }
}

/// Gradient accumulator aligned with a [`ParamSet`].
///
/// Alongside each gradient the store tracks which rows may be non-zero,
/// so [`GradStore::zero`] and [`crate::optim::Sgd`] can skip the rest of
/// a large embedding table (DESIGN.md §5g). The tape's `Gather`
/// backward records the rows it scatters into; every other write
/// (including the public [`GradStore::get_mut`]) marks the whole
/// parameter dense.
#[derive(Clone, Debug)]
pub struct GradStore {
    grads: Vec<Matrix>,
    touched: Vec<TouchedRows>,
}

/// The rows of one gradient matrix that may hold anything but `+0.0`.
///
/// While `dense` is false, every row outside `rows` holds `+0.0`: it
/// was zeroed and nothing has written it since. `rows` lists each
/// written row once (`marked` dedups). Once the list reaches a quarter
/// of the table, a row-by-row pass would cost about as much as the
/// dense one, so the store gives up tracking and goes dense until the
/// next reset.
#[derive(Clone, Debug)]
struct TouchedRows {
    dense: bool,
    rows: Vec<u32>,
    /// One flag per table row.
    marked: Vec<bool>,
}

impl TouchedRows {
    fn new(table_rows: usize) -> Self {
        Self {
            dense: false,
            rows: Vec::new(),
            marked: vec![false; table_rows],
        }
    }

    fn record(&mut self, indices: &[u32]) {
        if self.dense {
            return;
        }
        for &r in indices {
            let seen = &mut self.marked[r as usize];
            if !*seen {
                *seen = true;
                self.rows.push(r);
            }
        }
        if self.rows.len() * 4 >= self.marked.len() {
            self.dense = true;
        }
    }

    /// Zeroes the rows that may be non-zero and starts tracking afresh.
    fn reset(&mut self, grad: &mut Matrix) {
        if self.dense {
            grad.fill_zero();
        } else {
            for &r in &self.rows {
                grad.row_slice_mut(r as usize).fill(0.0);
            }
        }
        for &r in &self.rows {
            self.marked[r as usize] = false;
        }
        self.rows.clear();
        self.dense = false;
    }
}

impl GradStore {
    /// Zero gradients with the same shapes as `params`.
    pub fn zeros_like(params: &ParamSet) -> Self {
        Self {
            grads: params
                .entries
                .iter()
                .map(|m| Matrix::zeros(m.rows(), m.cols()))
                .collect(),
            touched: params
                .entries
                .iter()
                .map(|m| TouchedRows::new(m.rows()))
                .collect(),
        }
    }

    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.grads[id.0]
    }

    /// Mutable access to one gradient. The store can no longer tell
    /// which rows the caller writes, so the parameter counts as dense
    /// until the next [`GradStore::zero`].
    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        self.touched[id.0].dense = true;
        &mut self.grads[id.0]
    }

    /// Mutable access for a writer that touches only `rows` (each
    /// `< rows()`; duplicates allowed). Rows outside `rows` must be left
    /// as they are.
    pub(crate) fn rows_mut(&mut self, id: ParamId, rows: &[u32]) -> &mut Matrix {
        self.touched[id.0].record(rows);
        &mut self.grads[id.0]
    }

    /// The rows of `id` that may be non-zero, each once and in first-
    /// write order, or `None` when the gradient is dense.
    pub(crate) fn touched_rows(&self, id: ParamId) -> Option<&[u32]> {
        let t = &self.touched[id.0];
        (!t.dense).then_some(t.rows.as_slice())
    }

    /// Resets every gradient to zero, keeping allocations. Only the
    /// rows that may be non-zero are cleared.
    pub fn zero(&mut self) {
        for (g, t) in self.grads.iter_mut().zip(&mut self.touched) {
            t.reset(g);
        }
    }

    /// Global L2 norm across all gradients.
    pub fn l2_norm(&self) -> f32 {
        self.grads.iter().map(Matrix::sq_norm).sum::<f32>().sqrt()
    }

    /// Scales all gradients so the global norm is at most `max_norm`.
    /// Returns the pre-clip norm.
    pub fn clip_global_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.l2_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for g in &mut self.grads {
                g.scale_inplace(s);
            }
            // A factor with its sign bit clear maps the untracked +0.0
            // rows to +0.0, so the row tracking stays valid. A negative
            // factor (only reachable with `max_norm < 0`) would turn them
            // into -0.0, which a row-sparse reset would then miss.
            if !s.is_sign_positive() {
                for t in &mut self.touched {
                    t.dense = true;
                }
            }
        }
        norm
    }

    pub fn len(&self) -> usize {
        self.grads.len()
    }

    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn add_and_lookup() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamSet::new();
        let w = ps.add_xavier("w", 4, 3, &mut rng);
        let b = ps.add_bias("b", 3);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.get(w).shape(), (4, 3));
        assert_eq!(ps.get(b).shape(), (1, 3));
        assert_eq!(ps.name(w), "w");
        assert_eq!(ps.num_scalars(), 15);
    }

    #[test]
    fn grad_clip() {
        let mut ps = ParamSet::new();
        let w = ps.add("w", Matrix::zeros(1, 2));
        let mut gs = GradStore::zeros_like(&ps);
        gs.get_mut(w).data_mut().copy_from_slice(&[3.0, 4.0]);
        let pre = gs.clip_global_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((gs.l2_norm() - 1.0).abs() < 1e-5);
        // Below the threshold nothing changes.
        let pre2 = gs.clip_global_norm(10.0);
        assert!((pre2 - 1.0).abs() < 1e-5);
    }
}
