//! Finite-difference verification of every autodiff operation.
//!
//! For each op we build a small scalar-valued graph over random
//! parameters and compare the analytic gradient with central finite
//! differences. An op only enters the library once it passes here.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::nn::{Activation, GruCell, LstmCell, Mlp};
use tensor::sparse::Csr;
use tensor::{GradStore, Graph, Matrix, ParamSet, Var};

const EPS: f32 = 1e-3;
/// Relative tolerance: f32 finite differences are noisy, so we accept
/// 2% relative error with a small absolute floor.
const REL_TOL: f32 = 2e-2;
const ABS_TOL: f32 = 2e-4;

/// Checks d(loss)/d(param) for every parameter against central
/// finite differences.
fn gradcheck(params: &mut ParamSet, build: impl Fn(&mut Graph<'_>) -> Var) {
    // Analytic gradients.
    let mut grads = GradStore::zeros_like(params);
    {
        let mut g = Graph::new(params);
        let loss = build(&mut g);
        assert_eq!(g.value(loss).shape(), (1, 1), "loss must be scalar");
        g.backward(loss, &mut grads);
    }

    let eval = |params: &ParamSet| -> f32 {
        let mut g = Graph::new(params);
        let loss = build(&mut g);
        g.value(loss).at(0, 0)
    };

    for i in 0..params.len() {
        let id = params.iter().nth(i).expect("in range").0;
        let n_entries = params.get(id).len();
        for e in 0..n_entries {
            let orig = params.get(id).data()[e];
            params.get_mut(id).data_mut()[e] = orig + EPS;
            let up = eval(params);
            params.get_mut(id).data_mut()[e] = orig - EPS;
            let down = eval(params);
            params.get_mut(id).data_mut()[e] = orig;
            let numeric = (up - down) / (2.0 * EPS);
            let analytic = grads.get(id).data()[e];
            let denom = numeric.abs().max(analytic.abs()).max(1.0);
            assert!(
                (numeric - analytic).abs() <= REL_TOL * denom + ABS_TOL,
                "param {} entry {e}: analytic {analytic} vs numeric {numeric}",
                params.name(id),
            );
        }
    }
}

fn rng() -> StdRng {
    StdRng::seed_from_u64(0xD15EA5E)
}

#[test]
fn matmul_chain() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let a = params.add("a", Matrix::uniform(2, 3, 0.8, &mut rng));
    let b = params.add("b", Matrix::uniform(3, 4, 0.8, &mut rng));
    gradcheck(&mut params, |g| {
        let av = g.param(a);
        let bv = g.param(b);
        let y = g.matmul(av, bv);
        g.sq_sum(y)
    });
}

#[test]
fn matmul_t_against_table() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let h = params.add("h", Matrix::uniform(2, 4, 0.8, &mut rng));
    let table = params.add("table", Matrix::uniform(5, 4, 0.8, &mut rng));
    gradcheck(&mut params, |g| {
        let hv = g.param(h);
        let tv = g.param(table);
        let logits = g.matmul_t(hv, tv); // 2 x 5
        let lp = g.log_softmax_rows(logits);
        let picked = g.pick_per_row(lp, &[3, 0]);
        let s = g.sum_all(picked);
        g.scale(s, -1.0)
    });
}

#[test]
fn add_broadcast_and_sub() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let x = params.add("x", Matrix::uniform(3, 4, 0.8, &mut rng));
    let bias = params.add("bias", Matrix::uniform(1, 4, 0.8, &mut rng));
    let y = params.add("y", Matrix::uniform(3, 4, 0.8, &mut rng));
    gradcheck(&mut params, |g| {
        let xv = g.param(x);
        let bv = g.param(bias);
        let yv = g.param(y);
        let xb = g.add(xv, bv);
        let d = g.sub(xb, yv);
        g.sq_sum(d)
    });
}

#[test]
fn elementwise_mul_scale_addscalar() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let x = params.add("x", Matrix::uniform(2, 3, 0.8, &mut rng));
    let y = params.add("y", Matrix::uniform(2, 3, 0.8, &mut rng));
    gradcheck(&mut params, |g| {
        let xv = g.param(x);
        let yv = g.param(y);
        let m = g.mul(xv, yv);
        let s = g.scale(m, 1.7);
        let a = g.add_scalar(s, 0.3);
        g.sq_sum(a)
    });
}

#[test]
fn activations() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    // Keep values away from the ReLU kink where finite differences lie.
    let x = params.add(
        "x",
        Matrix::from_fn(2, 4, |r, c| 0.35 + 0.2 * (r as f32) - 0.45 * (c as f32)),
    );
    let _ = &mut rng;
    gradcheck(&mut params, |g| {
        let xv = g.param(x);
        let r = g.relu(xv);
        let l = g.leaky_relu(r, 0.2);
        let sgm = g.sigmoid(l);
        let t = g.tanh(sgm);
        let sp = g.softplus(t);
        g.sum_all(sp)
    });
}

#[test]
fn concat_ops() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let a = params.add("a", Matrix::uniform(2, 3, 0.8, &mut rng));
    let b = params.add("b", Matrix::uniform(2, 2, 0.8, &mut rng));
    let c = params.add("c", Matrix::uniform(1, 5, 0.8, &mut rng));
    gradcheck(&mut params, |g| {
        let av = g.param(a);
        let bv = g.param(b);
        let cv = g.param(c);
        let ab = g.concat_cols(av, bv); // 2 x 5
        let abc = g.concat_rows(&[ab, cv]); // 3 x 5
        let t = g.tanh(abc);
        g.sq_sum(t)
    });
}

#[test]
fn reductions_mean_and_sqsum() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let x = params.add("x", Matrix::uniform(3, 3, 0.8, &mut rng));
    gradcheck(&mut params, |g| {
        let xv = g.param(x);
        let m = g.mean_all(xv);
        let sq = g.sq_sum(xv);
        let sum = g.add(m, sq);
        g.sum_all(sum)
    });
}

#[test]
fn gather_embeddings() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let table = params.add("emb", Matrix::uniform(6, 4, 0.8, &mut rng));
    gradcheck(&mut params, |g| {
        // Repeated index 2 exercises gradient accumulation in scatter.
        let e = g.gather(table, &[2, 5, 2, 0]);
        let t = g.tanh(e);
        g.sq_sum(t)
    });
}

#[test]
fn spmm_dense_gradient() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let x = params.add("x", Matrix::uniform(4, 3, 0.8, &mut rng));
    let sp = Arc::new(Csr::from_triples(
        5,
        4,
        &[
            (0, 1, 0.5),
            (1, 0, -1.0),
            (2, 3, 2.0),
            (4, 2, 0.7),
            (4, 0, 0.1),
        ],
    ));
    gradcheck(&mut params, |g| {
        let xv = g.param(x);
        let y = g.spmm(Arc::clone(&sp), xv);
        let t = g.leaky_relu(y, 0.2);
        g.sq_sum(t)
    });
}

#[test]
fn bce_with_logits_loss() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let x = params.add("logits", Matrix::uniform(3, 4, 1.5, &mut rng));
    let targets = Matrix::from_fn(3, 4, |r, c| ((r + c) % 2) as f32);
    let mask = Matrix::from_fn(3, 4, |r, c| if (r * 4 + c) % 3 == 0 { 0.0 } else { 1.0 });
    gradcheck(&mut params, move |g| {
        let xv = g.param(x);
        g.bce_with_logits(xv, targets.clone(), mask.clone())
    });
}

#[test]
fn mse_masked_loss() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let x = params.add("pred", Matrix::uniform(3, 4, 1.0, &mut rng));
    let targets = Matrix::from_fn(3, 4, |r, c| (r as f32) * 0.3 - (c as f32) * 0.1);
    let mask = Matrix::from_fn(3, 4, |r, c| if (r + c) % 2 == 0 { 1.0 } else { 0.0 });
    gradcheck(&mut params, move |g| {
        let xv = g.param(x);
        g.mse_masked(xv, targets.clone(), mask.clone())
    });
}

#[test]
fn mlp_end_to_end() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let mlp = Mlp::new(
        &mut params,
        "mlp",
        &[3, 5, 2],
        Activation::Tanh,
        Activation::Identity,
        &mut rng,
    );
    let x_in = Matrix::uniform(2, 3, 0.8, &mut rng);
    gradcheck(&mut params, move |g| {
        let x = g.input(x_in.clone());
        let y = mlp.forward(g, x);
        g.sq_sum(y)
    });
}

#[test]
fn lstm_two_steps() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let cell = LstmCell::new(&mut params, "lstm", 3, 4, &mut rng);
    let x1 = Matrix::uniform(2, 3, 0.8, &mut rng);
    let x2 = Matrix::uniform(2, 3, 0.8, &mut rng);
    gradcheck(&mut params, move |g| {
        let state = cell.zero_state(g, 2);
        let x1v = g.input(x1.clone());
        let s1 = cell.step(g, x1v, state);
        let x2v = g.input(x2.clone());
        let s2 = cell.step(g, x2v, s1);
        g.sq_sum(s2.h)
    });
}

#[test]
fn gru_two_steps() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let cell = GruCell::new(&mut params, "gru", 3, 4, &mut rng);
    let x1 = Matrix::uniform(2, 3, 0.8, &mut rng);
    let x2 = Matrix::uniform(2, 3, 0.8, &mut rng);
    gradcheck(&mut params, move |g| {
        let h0 = cell.zero_state(g, 2);
        let x1v = g.input(x1.clone());
        let h1 = cell.step(g, x1v, h0);
        let x2v = g.input(x2.clone());
        let h2 = cell.step(g, x2v, h1);
        g.sq_sum(h2)
    });
}

#[test]
fn backward_accumulates_across_calls() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let w = params.add("w", Matrix::uniform(2, 2, 0.8, &mut rng));
    let mut grads = GradStore::zeros_like(&params);
    let mut g = Graph::new(&params);
    let wv = g.param(w);
    let loss = g.sq_sum(wv);
    g.backward(loss, &mut grads);
    let first = grads.get(w).clone();
    g.backward(loss, &mut grads);
    // Second sweep doubles the gradient.
    for (a, b) in grads.get(w).data().iter().zip(first.data()) {
        assert!((a - 2.0 * b).abs() < 1e-5);
    }
}

#[test]
fn backward_weighted_scales_gradient() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let w = params.add("w", Matrix::uniform(2, 2, 0.8, &mut rng));
    let mut g1 = GradStore::zeros_like(&params);
    let mut g2 = GradStore::zeros_like(&params);
    let mut g = Graph::new(&params);
    let wv = g.param(w);
    let loss = g.sq_sum(wv);
    g.backward(loss, &mut g1);
    g.backward_weighted(loss, -2.5, &mut g2);
    for (a, b) in g1.get(w).data().iter().zip(g2.get(w).data()) {
        assert!((b + 2.5 * a).abs() < 1e-5);
    }
}

#[test]
fn gather_var_rows() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let table = params.add("emb", Matrix::uniform(6, 4, 0.8, &mut rng));
    gradcheck(&mut params, |g| {
        let e = g.param(table);
        let t = g.tanh(e);
        // Repeated index exercises scatter-add.
        let picked = g.gather_var(t, &[1, 4, 1]);
        g.sq_sum(picked)
    });
}

#[test]
fn fused_param_matmuls() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let x = params.add("x", Matrix::uniform(3, 4, 0.8, &mut rng));
    let w = params.add("w", Matrix::uniform(4, 5, 0.8, &mut rng));
    let b = params.add("b", Matrix::uniform(1, 5, 0.8, &mut rng));
    let table = params.add("table", Matrix::uniform(6, 5, 0.8, &mut rng));
    gradcheck(&mut params, |g| {
        let xv = g.param(x);
        let xw = g.matmul_param(xv, w);
        let pre = g.add_row_param(xw, b);
        let h = g.tanh(pre);
        let logits = g.matmul_t_param(h, table); // 3 x 6
        g.sq_sum(logits)
    });
}

/// The fused param ops must be *bit-identical* to the
/// `param` + `matmul`/`add` compositions they replace — the fusion is
/// a pure tape/copy elimination, not a numeric change.
#[test]
fn fused_param_matmuls_are_bit_identical_to_unfused() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let x = params.add("x", Matrix::uniform(7, 4, 0.8, &mut rng));
    let w = params.add("w", Matrix::uniform(4, 5, 0.8, &mut rng));
    let b = params.add("b", Matrix::uniform(1, 5, 0.8, &mut rng));
    let table = params.add("table", Matrix::uniform(6, 5, 0.8, &mut rng));

    let run = |fused: bool| {
        let mut grads = GradStore::zeros_like(&params);
        let mut g = Graph::new(&params);
        let xv = g.param(x);
        let logits = if fused {
            let xw = g.matmul_param(xv, w);
            let pre = g.add_row_param(xw, b);
            let h = g.tanh(pre);
            g.matmul_t_param(h, table)
        } else {
            let wv = g.param(w);
            let bv = g.param(b);
            let tv = g.param(table);
            let xw = g.matmul(xv, wv);
            let pre = g.add(xw, bv);
            let h = g.tanh(pre);
            g.matmul_t(h, tv)
        };
        let loss = g.sq_sum(logits);
        g.backward(loss, &mut grads);
        let value: Vec<u32> = g.value(logits).data().iter().map(|v| v.to_bits()).collect();
        let gbits: Vec<Vec<u32>> = [x, w, b, table]
            .iter()
            .map(|&p| grads.get(p).data().iter().map(|v| v.to_bits()).collect())
            .collect();
        (value, gbits)
    };

    assert_eq!(run(true), run(false));
}

#[test]
fn log_softmax_pick_fused() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let x = params.add("x", Matrix::uniform(4, 6, 0.8, &mut rng));
    gradcheck(&mut params, |g| {
        let xv = g.param(x);
        let picked = g.log_softmax_pick(xv, &[2, 0, 5, 2]);
        let s = g.sum_all(picked);
        g.scale(s, -1.0)
    });
}

/// The fused pick must match `pick_per_row(log_softmax_rows(x))`
/// bit-for-bit in both the picked values and the input gradient.
#[test]
fn log_softmax_pick_is_bit_identical_to_composition() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let x = params.add("x", Matrix::uniform(5, 7, 3.0, &mut rng));
    let idx = [6u32, 0, 3, 3, 1];

    let run = |fused: bool| {
        let mut grads = GradStore::zeros_like(&params);
        let mut g = Graph::new(&params);
        let xv = g.param(x);
        let picked = if fused {
            g.log_softmax_pick(xv, &idx)
        } else {
            let lp = g.log_softmax_rows(xv);
            g.pick_per_row(lp, &idx)
        };
        let s = g.sum_all(picked);
        let loss = g.scale(s, -0.75);
        g.backward(loss, &mut grads);
        let value: Vec<u32> = g.value(picked).data().iter().map(|v| v.to_bits()).collect();
        let gx: Vec<u32> = grads.get(x).data().iter().map(|v| v.to_bits()).collect();
        (value, gx)
    };

    assert_eq!(run(true), run(false));
}

#[test]
fn row_dot_rows() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let a = params.add("a", Matrix::uniform(4, 5, 0.8, &mut rng));
    let b = params.add("b", Matrix::uniform(4, 5, 0.8, &mut rng));
    gradcheck(&mut params, |g| {
        let av = g.param(a);
        let bv = g.param(b);
        let d = g.row_dot(av, bv); // 4 x 1
        let t = g.tanh(d);
        g.sq_sum(t)
    });
}

/// Canonical bits: exact for every non-NaN value, one quiet NaN for all
/// NaNs (their sign/payload is left to the implementation by IEEE 754).
fn canon_bits(m: &Matrix) -> Vec<u32> {
    m.data()
        .iter()
        .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
        .collect()
}

/// Uniform values with one of `±0.0`, `±inf` or NaN planted in every
/// third row, offset by `seed`. Seeds 1, 2 and 3 plant in different
/// rows, so a third of the rows stay finite in every operand.
fn with_specials(rows: usize, cols: usize, seed: usize) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed as u64);
    let mut m = Matrix::uniform(rows, cols, 0.9, &mut rng);
    let specials = [-0.0, f32::INFINITY, 0.0, f32::NAN, -0.0, f32::NEG_INFINITY];
    for r in (0..rows).filter(|r| cols > 0 && (r + seed).is_multiple_of(3)) {
        m.set(r, (r / 3 + seed) % cols, specials[(r / 3) % specials.len()]);
    }
    m
}

/// `row_dot` must replay `matmul(mul(a, b), ones)` bit for bit: values,
/// and every parameter gradient, with signed zeros, infinities and NaNs
/// in the operands and the upstream gradient (DESIGN.md §5g).
#[test]
fn row_dot_is_bit_identical_to_mul_ones_matmul() {
    // `w` weights each row's output, so the upstream gradient carries
    // `±0.0`, `±inf` and NaN too.
    let run = |fused: bool, rows: usize, cols: usize| {
        let mut params = ParamSet::new();
        let a = params.add("a", with_specials(rows, cols, 1));
        let b = params.add("b", with_specials(rows, cols, 2));
        let w = with_specials(rows, 1, 3);
        let mut grads = GradStore::zeros_like(&params);
        let mut g = Graph::new(&params);
        let av = g.param(a);
        let bv = g.param(b);
        let d = if fused {
            g.row_dot(av, bv)
        } else {
            let p = g.mul(av, bv);
            let ones_col = g.input(Matrix::full(cols, 1, 1.0));
            g.matmul(p, ones_col)
        };
        let wv = g.input(w);
        let weighted = g.mul(d, wv);
        let loss = g.sum_all(weighted);
        g.backward(loss, &mut grads);
        (
            canon_bits(g.value(d)),
            canon_bits(grads.get(a)),
            canon_bits(grads.get(b)),
        )
    };
    for cols in [0, 1, 16, 17] {
        for rows in [0, 37] {
            assert_eq!(
                run(true, rows, cols),
                run(false, rows, cols),
                "{rows} x {cols}"
            );
        }
    }

    // The BCBT pair pattern (the composition `pair_logp` fuses): two
    // `row_dot`s sharing the left operand, joined by `concat_cols`,
    // picked through a log-softmax and swept with a zero weight (every
    // adjoint a signed zero) and with a PPO-like negative one.
    let policy = |fused: bool, cols: usize, weight: f32| {
        let mut rng = rng();
        let mut params = ParamSet::new();
        let d = params.add("d", Matrix::uniform(9, cols, 0.8, &mut rng));
        let table = params.add("table", Matrix::uniform(7, cols, 0.8, &mut rng));
        let mut grads = GradStore::zeros_like(&params);
        let mut g = Graph::new(&params);
        let dv = g.param(d);
        let dk = g.gather_var(dv, &[0, 3, 3, 8, 1, 5]);
        let el = g.gather(table, &[1, 1, 4, 0, 6, 2]);
        let er = g.gather(table, &[2, 5, 3, 1, 0, 6]);
        let (ll, lr) = if fused {
            (g.row_dot(dk, el), g.row_dot(dk, er))
        } else {
            let pl = g.mul(dk, el);
            let pr = g.mul(dk, er);
            let ones_col = g.input(Matrix::full(cols, 1, 1.0));
            (g.matmul(pl, ones_col), g.matmul(pr, ones_col))
        };
        let logits = g.concat_cols(ll, lr);
        let picked = g.log_softmax_pick(logits, &[0, 1, 1, 0, 1, 0]);
        let wv = g.input(Matrix::from_vec(
            6,
            1,
            vec![0.5, -1.0, 0.0, -0.0, 2.0, -0.25],
        ));
        let weighted = g.mul(picked, wv);
        let obj = g.sum_all(weighted);
        g.backward_weighted(obj, weight, &mut grads);
        (
            canon_bits(g.value(picked)),
            canon_bits(grads.get(d)),
            canon_bits(grads.get(table)),
        )
    };
    for cols in [1, 16, 17] {
        for weight in [0.0, -0.0625] {
            assert_eq!(
                policy(true, cols, weight),
                policy(false, cols, weight),
                "policy pattern, width {cols}, weight {weight}"
            );
        }
    }
}

/// One `concat_rows` over many parts must replay the chain of two-part
/// stacks it replaces bit for bit: the value, and each part's gradient
/// under an upstream gradient carrying `±0.0`, `±inf` and NaN. A single
/// part must pass through unchanged.
#[test]
fn concat_rows_slice_is_bit_identical_to_the_binary_chain() {
    let run = |fused: bool, part_rows: &[usize], cols: usize| {
        let mut params = ParamSet::new();
        let ids: Vec<_> = part_rows
            .iter()
            .enumerate()
            .map(|(i, &r)| params.add(format!("p{i}"), with_specials(r, cols, i + 1)))
            .collect();
        let total: usize = part_rows.iter().sum();
        let w = with_specials(total, cols, 3);
        let mut grads = GradStore::zeros_like(&params);
        let mut g = Graph::new(&params);
        let parts: Vec<Var> = ids.iter().map(|&id| g.param(id)).collect();
        let stacked = if fused {
            g.concat_rows(&parts)
        } else {
            // The binary chain; one part is the part itself.
            let mut acc = parts[0];
            for &p in &parts[1..] {
                acc = g.concat_rows(&[acc, p]);
            }
            acc
        };
        let wv = g.input(w);
        let weighted = g.mul(stacked, wv);
        let loss = g.sum_all(weighted);
        g.backward_weighted(loss, -0.0625, &mut grads);
        let mut bits = vec![canon_bits(g.value(stacked))];
        bits.extend(ids.iter().map(|&id| canon_bits(grads.get(id))));
        bits
    };
    let twenty = [20; 20];
    let cases: [&[usize]; 5] = [&[5], &[0], &twenty, &[3, 0, 2, 0, 4], &[0, 0, 1]];
    for part_rows in cases {
        for cols in [1, 16, 17] {
            assert_eq!(
                run(true, part_rows, cols),
                run(false, part_rows, cols),
                "parts {part_rows:?}, width {cols}"
            );
        }
    }
}

/// Decisions for the `pair_logp` tests: `k` decisions over a `src` of
/// `src_rows` rows and a table of `table_rows` rows, with repeated
/// `src` rows, some `left == right`, table rows that are `left` in one
/// decision and `right` in another, and both picks.
fn pair_decisions(k: usize, src_rows: u32, table_rows: u32) -> [Vec<u32>; 4] {
    let k = k as u32;
    let rows = (0..k).map(|r| (r * 7 + 2) % src_rows).collect();
    let left: Vec<u32> = (0..k).map(|r| (r * 5) % table_rows).collect();
    let right = (0..k)
        .map(|r| {
            if r % 6 == 0 {
                left[r as usize]
            } else {
                (r * 3 + 1) % table_rows
            }
        })
        .collect();
    let chosen = (0..k).map(|r| (r * r + r / 3) % 2).collect();
    [rows, left, right, chosen]
}

#[test]
fn pair_logp_gradcheck() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let d = params.add("d", Matrix::uniform(5, 4, 0.8, &mut rng));
    let table = params.add("table", Matrix::uniform(6, 4, 0.8, &mut rng));
    let [rows, left, right, chosen] = pair_decisions(11, 5, 6);
    gradcheck(&mut params, |g| {
        let dv = g.param(d);
        let dt = g.tanh(dv);
        let picked = g.pair_logp(dt, &rows, table, &left, &right, &chosen); // 11 x 1
        g.sq_sum(picked)
    });
}

/// `pair_logp` must replay the seven-op pipeline it replaces (two
/// gathers from the table, one from `src`, two `row_dot`s,
/// `concat_cols`, `log_softmax_pick`) bit for bit: the picked values,
/// the table gradient, and the gradient that reaches `src`'s parameter
/// (DESIGN.md §5g). Runs clean operands (where every rounding shows)
/// and operands and upstream gradients carrying `±0.0`, `±inf` and NaN,
/// swept with weights `0.0` (every adjoint a signed zero) and
/// `-0.0625` (PPO-like).
#[test]
fn pair_logp_is_bit_identical_to_the_seven_op_pipeline() {
    let run = |fused: bool, k: usize, cols: usize, specials: bool, weight: f32| {
        let (src_rows, table_rows) = (9, 7);
        let mut rng = rng();
        let mut fill = |rows: usize, cols: usize, seed: usize| {
            if specials {
                with_specials(rows, cols, seed)
            } else {
                Matrix::uniform(rows, cols, 0.9, &mut rng)
            }
        };
        let mut params = ParamSet::new();
        let d = params.add("d", fill(src_rows, cols, 1));
        let table = params.add("table", fill(table_rows, cols, 2));
        let w = fill(k, 1, 3);
        let [rows, left, right, chosen] = pair_decisions(k, src_rows as u32, table_rows as u32);
        let mut grads = GradStore::zeros_like(&params);
        let mut g = Graph::new(&params);
        let dv = g.param(d);
        let picked = if fused {
            g.pair_logp(dv, &rows, table, &left, &right, &chosen)
        } else {
            let dk = g.gather_var(dv, &rows);
            let el = g.gather(table, &left);
            let er = g.gather(table, &right);
            let ll = g.row_dot(dk, el);
            let lr = g.row_dot(dk, er);
            let logits = g.concat_cols(ll, lr);
            g.log_softmax_pick(logits, &chosen)
        };
        let wv = g.input(w);
        let weighted = g.mul(picked, wv);
        let obj = g.sum_all(weighted);
        g.backward_weighted(obj, weight, &mut grads);
        (
            canon_bits(g.value(picked)),
            canon_bits(grads.get(table)),
            canon_bits(grads.get(d)),
        )
    };
    for cols in [1, 16, 17] {
        for k in [0, 37] {
            for specials in [false, true] {
                for weight in [0.0, -0.0625] {
                    assert_eq!(
                        run(true, k, cols, specials, weight),
                        run(false, k, cols, specials, weight),
                        "width {cols}, K = {k}, specials {specials}, weight {weight}"
                    );
                }
            }
        }
    }
}
