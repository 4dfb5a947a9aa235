//! Property tests for the blocked/parallel kernel layer: every product
//! must match the naive reference loops at every thread count
//! (the determinism contract in `kernel.rs`), including degenerate
//! 0/1-sized dims, tile-boundary shapes, and non-finite inputs
//! (`0.0 * NaN = NaN` must propagate, not be skipped).
//!
//! Two strengths of equality are asserted, per the contract:
//!
//! * **Across thread counts** the kernel output is *fully*
//!   bit-identical, NaN payloads included — the same machine code runs
//!   over a shape-determined row partition, so nothing can differ.
//! * **Against the naive reference** every numeric value and every
//!   `±0.0`/`±inf` is bit-identical, and NaN-ness agrees elementwise;
//!   NaN *sign/payload* is compared canonicalized, because IEEE 754
//!   leaves NaN propagation (which operand's payload survives) to the
//!   implementation and instruction selection differs between the
//!   register micro-kernel and the reference loop.

use proptest::prelude::*;
use tensor::Matrix;

const THREADS: [usize; 3] = [1, 4, 8];

/// Candidate dims: degenerate sizes plus the 4/16 micro-tile and
/// 32/64 boundaries of the blocked kernels (and one size past them),
/// and the 8-wide tile, one-column tile and `CR = 8` row-tile edges
/// (7, 8, 9, 15, 16, 17, 24).
const DIMS: [usize; 19] = [
    0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 63, 64, 65, 127,
];

/// Deterministic fill with occasional exact zeros of both signs, NaNs
/// and infinities, so the IEEE-propagation paths get exercised
/// alongside ordinary values (an LCG keeps failures reproducible by
/// seed). `-0.0` matters on the `k = 1` shapes: a chain from `+0.0`
/// must turn a lone `-0.0` product into `+0.0`, as the reference does.
fn fill(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let data = (0..rows * cols)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match (state >> 33) % 41 {
                0 => 0.0,
                1 => f32::NAN,
                2 => f32::INFINITY,
                3 => f32::NEG_INFINITY,
                4 => -0.0,
                _ => ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5,
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

/// Exact bits for every non-NaN value; all NaNs collapse to the one
/// canonical quiet NaN (see the module docs for why).
fn canon_bits(m: &Matrix) -> Vec<u32> {
    m.data()
        .iter()
        .map(|x| {
            if x.is_nan() {
                f32::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_matches_reference_at_any_thread_count(
        mi in 0usize..DIMS.len(), ki in 0usize..DIMS.len(), ni in 0usize..DIMS.len(), seed in 0u64..1_000_000
    ) {
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let a = fill(m, k, seed);
        let b = fill(k, n, seed.wrapping_add(1));
        let got = a.matmul_threaded(&b, 1);
        prop_assert!(
            canon_bits(&got) == canon_bits(&a.matmul_ref(&b)),
            "matmul {m}x{k} * {k}x{n} diverged from the reference"
        );
        let want = bits(&got);
        for threads in THREADS {
            prop_assert!(
                bits(&a.matmul_threaded(&b, threads)) == want,
                "matmul {m}x{k} * {k}x{n} diverged at threads={threads}"
            );
        }
    }

    #[test]
    fn t_matmul_matches_reference_at_any_thread_count(
        ki in 0usize..DIMS.len(), mi in 0usize..DIMS.len(), ni in 0usize..DIMS.len(), seed in 0u64..1_000_000
    ) {
        let (k, m, n) = (DIMS[ki], DIMS[mi], DIMS[ni]);
        let a = fill(k, m, seed);
        let b = fill(k, n, seed.wrapping_add(2));
        let got = a.t_matmul_threaded(&b, 1);
        prop_assert!(
            canon_bits(&got) == canon_bits(&a.t_matmul_ref(&b)),
            "t_matmul ({k}x{m})^T * {k}x{n} diverged from the reference"
        );
        let want = bits(&got);
        for threads in THREADS {
            prop_assert!(
                bits(&a.t_matmul_threaded(&b, threads)) == want,
                "t_matmul ({k}x{m})^T * {k}x{n} diverged at threads={threads}"
            );
        }
    }

    #[test]
    fn matmul_t_matches_reference_at_any_thread_count(
        mi in 0usize..DIMS.len(), ki in 0usize..DIMS.len(), ni in 0usize..DIMS.len(), seed in 0u64..1_000_000
    ) {
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let a = fill(m, k, seed);
        let b = fill(n, k, seed.wrapping_add(3));
        let got = a.matmul_t_threaded(&b, 1);
        prop_assert!(
            canon_bits(&got) == canon_bits(&a.matmul_t_ref(&b)),
            "matmul_t {m}x{k} * ({n}x{k})^T diverged from the reference"
        );
        let want = bits(&got);
        for threads in THREADS {
            prop_assert!(
                bits(&a.matmul_t_threaded(&b, threads)) == want,
                "matmul_t {m}x{k} * ({n}x{k})^T diverged at threads={threads}"
            );
        }
    }
}

/// Shapes big enough to cross `PAR_MIN_FLOPS` and split into several
/// row chunks, with a NaN and an infinity planted in the right operand
/// against a zero row on the left: the parallel blocked path must
/// produce the exact bits of its own serial run (NaNs included), and
/// canonically-equal bits vs the naive reference.
#[test]
fn parallel_dispatch_is_bit_identical_on_large_shapes() {
    let mut a = fill(192, 128, 7);
    for x in a.row_slice_mut(5) {
        *x = 0.0;
    }
    let mut b = fill(128, 160, 11);
    b.set(0, 3, f32::NAN);
    b.set(64, 40, f32::INFINITY);

    let serial = a.matmul_threaded(&b, 1);
    assert_eq!(canon_bits(&serial), canon_bits(&a.matmul_ref(&b)));
    let want = bits(&serial);
    for threads in THREADS {
        assert_eq!(
            bits(&a.matmul_threaded(&b, threads)),
            want,
            "threads={threads}"
        );
    }
    // The zero row times a NaN column is NaN, not zero.
    let mm = a.matmul_threaded(&b, 8);
    assert!(mm.at(5, 3).is_nan());

    let b2 = fill(192, 96, 13);
    let serial_t = a.t_matmul_threaded(&b2, 1);
    assert_eq!(canon_bits(&serial_t), canon_bits(&a.t_matmul_ref(&b2)));
    let want_t = bits(&serial_t);
    for threads in THREADS {
        assert_eq!(
            bits(&a.t_matmul_threaded(&b2, threads)),
            want_t,
            "threads={threads}"
        );
    }

    let b3 = fill(144, 128, 17);
    let serial_mt = a.matmul_t_threaded(&b3, 1);
    assert_eq!(canon_bits(&serial_mt), canon_bits(&a.matmul_t_ref(&b3)));
    let want_mt = bits(&serial_mt);
    for threads in THREADS {
        assert_eq!(
            bits(&a.matmul_t_threaded(&b3, threads)),
            want_mt,
            "threads={threads}"
        );
    }
}

/// Signed zeros on the narrow shapes, deterministically. Every third
/// left row is all `-0.0` against a positive right operand, so its
/// products are all `-0.0` and only a chain that starts at `+0.0` sums
/// them to `+0.0` (at `k = 1` that is `+0.0 + (-0.0)`; at `n = 1` a
/// whole row of them). All three products must agree with their
/// references bit for bit (no NaNs here, so no canonicalization).
#[test]
fn signed_zeros_match_reference_on_narrow_shapes() {
    let lhs = |r: usize, c: usize| match (r % 3, (r + c) % 2) {
        (0, _) | (_, 1) => -0.0,
        _ => 0.5,
    };
    let rhs = |r: usize, c: usize| 0.25 + (r + c) as f32 * 0.125;
    let shapes = [
        (1, 1, 1),
        (6, 1, 1),
        (5, 1, 17),
        (37, 16, 1),
        (37, 17, 1),
        (37, 16, 8),
        (13, 1, 8),
        (37, 24, 24),
        (11, 1, 24),
    ];
    for (m, k, n) in shapes {
        let a = Matrix::from_fn(m, k, lhs);
        let b = Matrix::from_fn(k, n, rhs);
        let want = a.matmul_ref(&b);
        assert!(
            want.data().iter().any(|x| x.to_bits() == 0),
            "{m}x{k}x{n}: the probe must produce +0.0 outputs"
        );
        let bt = b.transpose();
        let at = a.transpose();
        for threads in THREADS {
            assert_eq!(
                bits(&a.matmul_threaded(&b, threads)),
                bits(&want),
                "matmul {m}x{k} * {k}x{n}, threads={threads}"
            );
            assert_eq!(
                bits(&a.matmul_t_threaded(&bt, threads)),
                bits(&a.matmul_t_ref(&bt)),
                "matmul_t {m}x{k} * ({n}x{k})^T, threads={threads}"
            );
            assert_eq!(
                bits(&at.t_matmul_threaded(&b, threads)),
                bits(&at.t_matmul_ref(&b)),
                "t_matmul ({k}x{m})^T * {k}x{n}, threads={threads}"
            );
        }
    }
}
