//! The `tanh` and sigmoid kernels and the scalar libm ports behind them
//! (`tensor::transcendental`) must equal the platform libm bit for bit:
//! `f32::tanh`, `f32::exp`, `f32::exp_m1` and `tensor::stable_sigmoid`.
//! Every case compares bits, or NaN-ness where the input is NaN (IEEE
//! 754 leaves NaN payloads to the implementation).
//!
//! On a host where the kernels are not selected (no AVX2+FMA, or a libm
//! that the probe set tells apart), the kernels map the platform
//! functions and these cases hold trivially for them; the scalar ports
//! are glibc 2.36's and are checked only where that libm runs.
//!
//! The all-inputs checks are `#[ignore]`d. `scripts/ci.sh` runs the
//! kernels' one (`cargo test --release -p tensor --test transcendental
//! -- --ignored all_inputs_through_the_kernels`); the ports' one runs
//! the same way with `all_inputs_through_the_ports`.

use tensor::transcendental::{
    expf, expm1f, fast_kernels, sigmoid, sigmoid_into, tanh_into, tanhf, EDGES,
};
use tensor::{stable_sigmoid, Graph, Matrix, ParamSet};

type Scalar = fn(f32) -> f32;
type Kernel = fn(&[f32], &mut [f32]);

/// Platform functions and the kernels that must reproduce them.
const KERNELS: [(&str, Scalar, Kernel); 2] = [
    ("tanh", f32::tanh, tanh_into),
    ("sigmoid", stable_sigmoid, sigmoid_into),
];

/// Platform functions and their glibc 2.36 ports.
const PORTS: [(&str, Scalar, Scalar); 4] = [
    ("tanhf", f32::tanh, tanhf),
    ("sigmoid", stable_sigmoid, sigmoid),
    ("expf", f32::exp, expf),
    ("expm1f", f32::exp_m1, expm1f),
];

fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan()
}

/// Whether this libm is the one the ports reproduce: glibc's `tanhf`
/// and its FMA `expf` variant on x86-64.
fn ported_libm() -> bool {
    cfg!(all(
        target_arch = "x86_64",
        target_os = "linux",
        target_env = "gnu"
    )) && fast_kernels()
}

/// Every edge, its neighbours, and their negations.
fn edge_inputs() -> Vec<f32> {
    EDGES
        .iter()
        .flat_map(|&x| [x, x.next_up(), x.next_down()])
        .flat_map(|x| [x, -x])
        .collect()
}

fn check_kernels(xs: &[f32]) {
    let mut out = vec![0.0; xs.len()];
    for (name, libm, kernel) in KERNELS {
        kernel(xs, &mut out);
        for (&x, &y) in xs.iter().zip(&out) {
            let want = libm(x);
            assert!(
                same(y, want),
                "{name}_into({x:e} = {:#010x}) = {y:e}, libm {want:e}",
                x.to_bits()
            );
        }
    }
}

/// The ports against libm, where the ported libm runs.
fn check_ports(xs: &[f32]) {
    if !ported_libm() {
        return;
    }
    for (name, libm, port) in PORTS {
        for &x in xs {
            let (got, want) = (port(x), libm(x));
            assert!(
                same(got, want),
                "{name}({x:e} = {:#010x}) = {got:e}, libm {want:e}",
                x.to_bits()
            );
        }
    }
}

#[test]
fn every_4099th_bit_pattern_matches_libm() {
    let xs: Vec<f32> = (0..=u32::MAX).step_by(4099).map(f32::from_bits).collect();
    check_kernels(&xs);
    check_ports(&xs);
}

#[test]
fn branch_edges_match_libm() {
    let xs = edge_inputs();
    check_kernels(&xs);
    check_ports(&xs);
}

/// A special lane at any position of any short slice must come out as
/// libm's value, and leave its neighbours at theirs: where the vector
/// loop ends and its remainder begins cannot matter.
#[test]
fn special_lanes_match_libm_at_every_position() {
    let ordinary = [0.3f32, -1.7, 5.25, -0.01, 2.0, -6.5, 0.75];
    for len in 0..=40 {
        let base: Vec<f32> = (0..len).map(|i| ordinary[i % ordinary.len()]).collect();
        check_kernels(&base);
        for special in edge_inputs() {
            for pos in 0..len {
                let mut xs = base.clone();
                xs[pos] = special;
                check_kernels(&xs);
            }
        }
    }
}

/// `Graph::tanh` and `Graph::sigmoid` forwards keep the values the tape
/// computed by mapping libm before the kernels.
#[test]
fn graph_forwards_equal_mapped_libm() {
    let mut xs = edge_inputs();
    xs.extend((0..37).map(|i| (i as f32 - 18.0) * 0.37));
    let cols = 7;
    xs.truncate(xs.len() / cols * cols);
    let rows = xs.len() / cols;
    let params = ParamSet::new();
    let mut g = Graph::new(&params);
    let x = g.input(Matrix::from_vec(rows, cols, xs.clone()));
    let t = g.tanh(x);
    let s = g.sigmoid(x);
    for (name, var, libm) in [
        ("tanh", t, f32::tanh as Scalar),
        ("sigmoid", s, stable_sigmoid),
    ] {
        let value = g.value(var);
        assert_eq!(value.shape(), (rows, cols));
        for (&x, &y) in xs.iter().zip(value.data()) {
            assert!(
                same(y, libm(x)),
                "Graph::{name}({x:e}) = {y:e}, libm {:e}",
                libm(x)
            );
        }
    }
}

/// Runs `check` over all 2^32 bit patterns on two threads.
fn all_inputs(check: fn(&[f32])) {
    const CHUNK: usize = 1 << 16;
    std::thread::scope(|scope| {
        for half in [0u64, 1 << 31] {
            scope.spawn(move || {
                let mut xs = vec![0.0f32; CHUNK];
                for start in (half..half + (1 << 31)).step_by(CHUNK) {
                    for (x, bits) in xs.iter_mut().zip(start..) {
                        *x = f32::from_bits(bits as u32);
                    }
                    check(&xs);
                }
            });
        }
    });
}

/// All 2^32 inputs through the selected kernels. Fails where the fast
/// kernels are not selected: there it would only compare libm with
/// itself.
#[test]
#[ignore = "all 2^32 inputs: run in release (scripts/ci.sh)"]
fn all_inputs_through_the_kernels_match_libm() {
    assert!(
        fast_kernels(),
        "the AVX2+FMA kernels were not selected on this host"
    );
    all_inputs(check_kernels);
}

/// All 2^32 inputs through the four scalar ports (about four times the
/// kernels' run: the ports run without their FMA codegen here).
#[test]
#[ignore = "all 2^32 inputs: run in release"]
fn all_inputs_through_the_ports_match_libm() {
    assert!(ported_libm(), "this host does not run the ported libm");
    all_inputs(check_ports);
}
