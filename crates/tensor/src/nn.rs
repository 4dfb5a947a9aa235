//! Neural-network building blocks composed from tape operations:
//! linear layers, multi-layer perceptrons, and LSTM / GRU recurrent
//! cells. Each block registers its parameters in a [`ParamSet`] at
//! construction time and builds graph nodes when applied.
//!
//! The matmuls these blocks emit run on the blocked, pool-parallel
//! [`crate::kernel`] layer; results are bit-identical at any kernel
//! thread count, so blocks never need to care about threading.

use rand::Rng;

use crate::graph::{Graph, Var};
use crate::params::{ParamId, ParamSet};

/// Fully-connected layer `y = x W + b`.
#[derive(Clone, Debug)]
pub struct Linear {
    pub w: ParamId,
    pub b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w = params.add_xavier(format!("{name}.w"), in_dim, out_dim, rng);
        let b = params.add_bias(format!("{name}.b"), out_dim);
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    pub fn forward(&self, g: &mut Graph<'_>, x: Var) -> Var {
        let xw = g.matmul_param(x, self.w);
        g.add_row_param(xw, self.b)
    }
}

/// Activation selector for [`Mlp`] hidden layers.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Activation {
    Relu,
    Tanh,
    Sigmoid,
    /// Leaky ReLU with slope 0.2 (NGCF's choice).
    LeakyRelu,
    /// No nonlinearity.
    Identity,
}

impl Activation {
    pub fn apply(self, g: &mut Graph<'_>, x: Var) -> Var {
        match self {
            Activation::Relu => g.relu(x),
            Activation::Tanh => g.tanh(x),
            Activation::Sigmoid => g.sigmoid(x),
            Activation::LeakyRelu => g.leaky_relu(x, 0.2),
            Activation::Identity => x,
        }
    }
}

/// Multi-layer perceptron. The activation is applied after every layer
/// except the last (`final_activation` controls the output).
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_activation: Activation,
    final_activation: Activation,
}

impl Mlp {
    /// `dims` is the full chain, e.g. `[64, 64, 64]` builds two layers.
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        dims: &[usize],
        hidden_activation: Activation,
        final_activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(dims.len() >= 2, "Mlp needs at least input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(params, &format!("{name}.l{i}"), w[0], w[1], rng))
            .collect();
        Self {
            layers,
            hidden_activation,
            final_activation,
        }
    }

    pub fn forward(&self, g: &mut Graph<'_>, mut x: Var) -> Var {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(g, x);
            x = if i == last {
                self.final_activation.apply(g, x)
            } else {
                self.hidden_activation.apply(g, x)
            };
        }
        x
    }

    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// The layers, input side first.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }
}

/// Hidden state of a recurrent cell: one row per sequence in the batch.
#[derive(Copy, Clone, Debug)]
pub struct LstmState {
    pub h: Var,
    pub c: Var,
}

/// Standard LSTM cell.
///
/// Gates: `i, f, o = σ(x W• + h U• + b•)`, `g = tanh(x Wg + h Ug + bg)`,
/// `c' = f ⊙ c + i ⊙ g`, `h' = o ⊙ tanh(c')`.
#[derive(Clone, Debug)]
pub struct LstmCell {
    wi: Linear,
    ui: ParamId,
    wf: Linear,
    uf: ParamId,
    wo: Linear,
    uo: ParamId,
    wg: Linear,
    ug: ParamId,
    hidden: usize,
}

impl LstmCell {
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        input: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            wi: Linear::new(params, &format!("{name}.wi"), input, hidden, rng),
            ui: params.add_xavier(format!("{name}.ui"), hidden, hidden, rng),
            wf: Linear::new(params, &format!("{name}.wf"), input, hidden, rng),
            uf: params.add_xavier(format!("{name}.uf"), hidden, hidden, rng),
            wo: Linear::new(params, &format!("{name}.wo"), input, hidden, rng),
            uo: params.add_xavier(format!("{name}.uo"), hidden, hidden, rng),
            wg: Linear::new(params, &format!("{name}.wg"), input, hidden, rng),
            ug: params.add_xavier(format!("{name}.ug"), hidden, hidden, rng),
            hidden,
        }
    }

    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// Zero initial state for a batch of `batch` sequences.
    pub fn zero_state(&self, g: &mut Graph<'_>, batch: usize) -> LstmState {
        let h = g.input(crate::Matrix::zeros(batch, self.hidden));
        let c = g.input(crate::Matrix::zeros(batch, self.hidden));
        LstmState { h, c }
    }

    fn gate(&self, g: &mut Graph<'_>, w: &Linear, u: ParamId, x: Var, h: Var) -> Var {
        let xw = w.forward(g, x);
        let hu = g.matmul_param(h, u);
        g.add(xw, hu)
    }

    pub fn step(&self, g: &mut Graph<'_>, x: Var, state: LstmState) -> LstmState {
        let i_pre = self.gate(g, &self.wi, self.ui, x, state.h);
        let i = g.sigmoid(i_pre);
        let f_pre = self.gate(g, &self.wf, self.uf, x, state.h);
        let f = g.sigmoid(f_pre);
        let o_pre = self.gate(g, &self.wo, self.uo, x, state.h);
        let o = g.sigmoid(o_pre);
        let g_pre = self.gate(g, &self.wg, self.ug, x, state.h);
        let gg = g.tanh(g_pre);
        let fc = g.mul(f, state.c);
        let ig = g.mul(i, gg);
        let c = g.add(fc, ig);
        let tc = g.tanh(c);
        let h = g.mul(o, tc);
        LstmState { h, c }
    }
}

/// Standard GRU cell.
///
/// `z = σ(x Wz + h Uz + bz)`, `r = σ(x Wr + h Ur + br)`,
/// `n = tanh(x Wn + (r ⊙ h) Un + bn)`, `h' = (1 - z) ⊙ h + z ⊙ n`.
#[derive(Clone, Debug)]
pub struct GruCell {
    wz: Linear,
    uz: ParamId,
    wr: Linear,
    ur: ParamId,
    wn: Linear,
    un: ParamId,
    hidden: usize,
}

impl GruCell {
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        input: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            wz: Linear::new(params, &format!("{name}.wz"), input, hidden, rng),
            uz: params.add_xavier(format!("{name}.uz"), hidden, hidden, rng),
            wr: Linear::new(params, &format!("{name}.wr"), input, hidden, rng),
            ur: params.add_xavier(format!("{name}.ur"), hidden, hidden, rng),
            wn: Linear::new(params, &format!("{name}.wn"), input, hidden, rng),
            un: params.add_xavier(format!("{name}.un"), hidden, hidden, rng),
            hidden,
        }
    }

    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    pub fn zero_state(&self, g: &mut Graph<'_>, batch: usize) -> Var {
        g.input(crate::Matrix::zeros(batch, self.hidden))
    }

    pub fn step(&self, g: &mut Graph<'_>, x: Var, h: Var) -> Var {
        let z_x = self.wz.forward(g, x);
        let z_h = g.matmul_param(h, self.uz);
        let z_pre = g.add(z_x, z_h);
        let z = g.sigmoid(z_pre);

        let r_x = self.wr.forward(g, x);
        let r_h = g.matmul_param(h, self.ur);
        let r_pre = g.add(r_x, r_h);
        let r = g.sigmoid(r_pre);

        let n_x = self.wn.forward(g, x);
        let rh = g.mul(r, h);
        let n_h = g.matmul_param(rh, self.un);
        let n_pre = g.add(n_x, n_h);
        let n = g.tanh(n_pre);

        // h' = (1 - z) ⊙ h + z ⊙ n
        let neg_z = g.scale(z, -1.0);
        let one_minus_z = g.add_scalar(neg_z, 1.0);
        let keep = g.mul(one_minus_z, h);
        let update = g.mul(z, n);
        g.add(keep, update)
    }
}
