//! Shape and behavior contracts for the NN building blocks.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::nn::{Activation, GruCell, Linear, LstmCell, Mlp};
use tensor::{Graph, Matrix, ParamSet};

fn rng() -> StdRng {
    StdRng::seed_from_u64(0xBEEF)
}

#[test]
fn linear_output_shape_and_bias() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let layer = Linear::new(&mut params, "l", 4, 3, &mut rng);
    assert_eq!(layer.in_dim(), 4);
    assert_eq!(layer.out_dim(), 3);
    let mut g = Graph::new(&params);
    let x = g.input(Matrix::zeros(5, 4));
    let y = layer.forward(&mut g, x);
    assert_eq!(g.value(y).shape(), (5, 3));
    // Zero input ⇒ output equals the (zero-initialized) bias row.
    assert!(g.value(y).data().iter().all(|&v| v == 0.0));
}

#[test]
fn mlp_chains_dimensions() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let mlp = Mlp::new(
        &mut params,
        "m",
        &[6, 8, 8, 2],
        Activation::Relu,
        Activation::Identity,
        &mut rng,
    );
    assert_eq!(mlp.out_dim(), 2);
    let mut g = Graph::new(&params);
    let x = g.input(Matrix::full(3, 6, 0.5));
    let y = mlp.forward(&mut g, x);
    assert_eq!(g.value(y).shape(), (3, 2));
}

#[test]
fn mlp_final_activation_applies() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let mlp = Mlp::new(
        &mut params,
        "m",
        &[4, 4],
        Activation::Relu,
        Activation::Sigmoid,
        &mut rng,
    );
    let mut g = Graph::new(&params);
    let x = g.input(Matrix::uniform(2, 4, 3.0, &mut rng));
    let y = mlp.forward(&mut g, x);
    assert!(g.value(y).data().iter().all(|&v| (0.0..=1.0).contains(&v)));
}

#[test]
fn lstm_state_shapes_and_evolution() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let cell = LstmCell::new(&mut params, "lstm", 3, 5, &mut rng);
    assert_eq!(cell.hidden_dim(), 5);
    let mut g = Graph::new(&params);
    let s0 = cell.zero_state(&mut g, 2);
    assert_eq!(g.value(s0.h).shape(), (2, 5));
    assert!(g.value(s0.h).data().iter().all(|&v| v == 0.0));
    let x = g.input(Matrix::full(2, 3, 1.0));
    let s1 = cell.step(&mut g, x, s0);
    assert_eq!(g.value(s1.h).shape(), (2, 5));
    // A nonzero input must move the state.
    assert!(g.value(s1.h).max_abs() > 0.0);
    // Hidden state is o ⊙ tanh(c): bounded by 1.
    assert!(g.value(s1.h).max_abs() <= 1.0);
}

#[test]
fn gru_state_shapes_and_bounds() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let cell = GruCell::new(&mut params, "gru", 3, 4, &mut rng);
    assert_eq!(cell.hidden_dim(), 4);
    let mut g = Graph::new(&params);
    let h0 = cell.zero_state(&mut g, 3);
    let x = g.input(Matrix::full(3, 3, 2.0));
    let mut h = h0;
    for _ in 0..10 {
        h = cell.step(&mut g, x, h);
    }
    // h is a convex combination of tanh outputs: bounded by 1.
    assert!(g.value(h).max_abs() <= 1.0);
    assert!(g.value(h).max_abs() > 0.0);
}

#[test]
fn identical_seeds_build_identical_networks() {
    let build = || {
        let mut rng = StdRng::seed_from_u64(7);
        let mut params = ParamSet::new();
        let _ = Mlp::new(
            &mut params,
            "m",
            &[4, 4, 2],
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        );
        params
    };
    let a = build();
    let b = build();
    assert_eq!(a.num_scalars(), b.num_scalars());
    for (ida, ma) in a.iter() {
        assert_eq!(ma.data(), b.get(ida).data());
    }
}

#[test]
fn sequence_order_matters_to_lstm() {
    // The LSTM must distinguish [a, b] from [b, a] — the property
    // PoisonRec relies on to learn click *order* (e.g. for GRU4Rec /
    // CoVisitation attacks).
    let mut rng = rng();
    let mut params = ParamSet::new();
    let cell = LstmCell::new(&mut params, "lstm", 2, 4, &mut rng);
    let xa = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
    let xb = Matrix::from_vec(1, 2, vec![0.0, 1.0]);

    let run = |first: &Matrix, second: &Matrix, params: &ParamSet| -> Vec<f32> {
        let mut g = Graph::new(params);
        let s0 = cell.zero_state(&mut g, 1);
        let x1 = g.input(first.clone());
        let s1 = cell.step(&mut g, x1, s0);
        let x2 = g.input(second.clone());
        let s2 = cell.step(&mut g, x2, s1);
        g.value(s2.h).data().to_vec()
    };
    let ab = run(&xa, &xb, &params);
    let ba = run(&xb, &xa, &params);
    let diff: f32 = ab.iter().zip(&ba).map(|(x, y)| (x - y).abs()).sum();
    assert!(diff > 1e-4, "LSTM is order-blind: {ab:?} vs {ba:?}");
}

/// Gathers check every index against the table's row count up front,
/// in release builds too; a zero-width table must not accept any row.
mod gather_bounds {
    use super::*;

    fn gather_from(rows: usize, cols: usize, indices: &[u32]) {
        let mut params = ParamSet::new();
        let table = params.add("t", Matrix::zeros(rows, cols));
        let mut g = Graph::new(&params);
        g.gather(table, indices);
    }

    fn gather_var_from(rows: usize, cols: usize, indices: &[u32]) {
        let params = ParamSet::new();
        let mut g = Graph::new(&params);
        let src = g.input(Matrix::zeros(rows, cols));
        g.gather_var(src, indices);
    }

    #[test]
    fn in_range_indices_gather() {
        gather_from(3, 2, &[0, 2, 2, 1]);
        gather_from(3, 0, &[0, 1, 2]);
        gather_var_from(3, 0, &[2, 0]);
    }

    #[test]
    #[should_panic(expected = "gather index 3 out of range for a table of 3 rows")]
    fn gather_rejects_a_row_past_the_end() {
        gather_from(3, 2, &[0, 3]);
    }

    #[test]
    #[should_panic(expected = "gather index 3 out of range for a table of 3 rows")]
    fn gather_rejects_a_consecutive_block_past_the_end() {
        gather_from(3, 2, &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "gather index 7 out of range for a table of 3 rows")]
    fn gather_rejects_any_row_of_a_zero_width_table() {
        gather_from(3, 0, &[1, 7]);
    }

    #[test]
    #[should_panic(expected = "gather index 0 out of range for a table of 0 rows")]
    fn gather_rejects_any_row_of_an_empty_table() {
        gather_from(0, 4, &[0]);
    }

    #[test]
    #[should_panic(expected = "gather index 9 out of range for a table of 2 rows")]
    fn gather_var_rejects_a_row_of_a_zero_width_node() {
        gather_var_from(2, 0, &[9]);
    }
}
