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

/// Picks check every index against the column count up front, in
/// release builds too: an index past the last column must panic, not
/// read the next row's entry (or, in the backward sweep, write it).
mod pick_bounds {
    use super::*;

    fn pick_from(cols: usize, indices: &[u32], fused: bool) {
        let params = ParamSet::new();
        let mut g = Graph::new(&params);
        let x = g.input(Matrix::from_fn(indices.len(), cols, |r, c| {
            (r * cols + c) as f32
        }));
        if fused {
            g.log_softmax_pick(x, indices);
        } else {
            g.pick_per_row(x, indices);
        }
    }

    #[test]
    fn in_range_picks_pick() {
        pick_from(4, &[3, 0, 2], false);
        pick_from(4, &[3, 0, 2], true);
        pick_from(0, &[], true);
    }

    #[test]
    #[should_panic(expected = "pick index 4 out of range for 4 columns")]
    fn pick_per_row_rejects_a_column_past_the_end() {
        pick_from(4, &[4, 0, 1], false);
    }

    #[test]
    #[should_panic(expected = "pick index 4 out of range for 4 columns")]
    fn log_softmax_pick_rejects_a_column_past_the_end() {
        pick_from(4, &[4, 0, 1], true);
    }

    #[test]
    #[should_panic(expected = "pick index 0 out of range for 0 columns")]
    fn picks_reject_any_column_of_a_zero_width_node() {
        pick_from(0, &[0, 0], false);
    }
}

/// `pair_logp` checks its `src` rows, both table-row lists and the
/// two-way picks up front, in release builds too.
mod pair_logp_bounds {
    use super::*;

    /// Three decisions over a 4-row `src` and a 5-row table, with one
    /// index replaced: `which` 0..4 selects rows, left, right, chosen.
    fn pair_logp_with(which: usize, bad: u32) {
        let mut params = ParamSet::new();
        let table = params.add("t", Matrix::full(5, 3, 0.5));
        let mut lists = [vec![0, 3, 1], vec![4, 0, 2], vec![1, 1, 3], vec![0, 1, 1]];
        if which < lists.len() {
            lists[which][1] = bad;
        }
        let [rows, left, right, chosen] = lists;
        let mut g = Graph::new(&params);
        let src = g.input(Matrix::full(4, 3, 0.25));
        g.pair_logp(src, &rows, table, &left, &right, &chosen);
    }

    #[test]
    fn in_range_decisions_run() {
        pair_logp_with(usize::MAX, 0);
    }

    #[test]
    #[should_panic(expected = "gather index 4 out of range for a table of 4 rows")]
    fn rejects_a_src_row_past_the_end() {
        pair_logp_with(0, 4);
    }

    #[test]
    #[should_panic(expected = "gather index 5 out of range for a table of 5 rows")]
    fn rejects_a_left_row_past_the_end() {
        pair_logp_with(1, 5);
    }

    #[test]
    #[should_panic(expected = "gather index 9 out of range for a table of 5 rows")]
    fn rejects_a_right_row_past_the_end() {
        pair_logp_with(2, 9);
    }

    #[test]
    #[should_panic(expected = "pick index 2 out of range for 2 columns")]
    fn rejects_a_pick_past_the_pair() {
        pair_logp_with(3, 2);
    }
}
