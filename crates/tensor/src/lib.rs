//! # tensor
//!
//! Minimal dense-matrix machine-learning substrate for the PoisonRec
//! reproduction: a row-major [`Matrix`], a define-by-run reverse-mode
//! autodiff [`Graph`] over a shared [`ParamSet`], recurrent/feed-forward
//! cells ([`nn`]), and first-order optimizers ([`optim`]).
//!
//! The design goal is *verifiability* over raw speed: every operation's
//! vector-Jacobian product is unit-tested against central finite
//! differences (see `tests/gradcheck.rs`), and the dimensionalities used
//! by the paper (embedding width 64, batches of tens of rows) keep naive
//! kernels fast enough.
//!
//! ```
//! use tensor::{Graph, GradStore, Matrix, ParamSet};
//!
//! let mut rng = rand::thread_rng();
//! let mut params = ParamSet::new();
//! let w = params.add("w", Matrix::xavier(3, 2, &mut rng));
//!
//! let mut grads = GradStore::zeros_like(&params);
//! let mut g = Graph::new(&params);
//! let x = g.input(Matrix::full(1, 3, 1.0));
//! let wv = g.param(w);
//! let y = g.matmul(x, wv);
//! let loss = g.sq_sum(y);
//! g.backward(loss, &mut grads);
//! assert_eq!(grads.get(w).shape(), (3, 2));
//! ```

mod graph;
pub mod kernel;
mod matrix;
pub mod nn;
pub mod optim;
mod params;
pub mod profile;
pub mod sparse;
pub mod transcendental;
pub mod util;
pub mod wire;

pub use graph::{stable_sigmoid, stable_softplus, Graph, GraphArena, Var};
pub use matrix::Matrix;
pub use params::{GradStore, ParamId, ParamSet};
pub use profile::{OpKind, OpProfile, OpProfileRow};
pub use sparse::Csr;
