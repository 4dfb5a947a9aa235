//! Cache-blocked, pool-parallel matmul kernels behind [`crate::Matrix`].
//!
//! Three products cover every hot path on the tape: `A·B` (`matmul`),
//! `A·Bᵀ` (`matmul_t`, the logits-against-embedding-table shape) and
//! `Aᵀ·B` (`t_matmul`, the weight-gradient shape). All three reduce to
//! one accumulation structure
//!
//! ```text
//! out[i][j] += lhs(i, k) * rhs[k][j]      for k = 0, 1, 2, ... ascending
//! ```
//!
//! where `rhs` is traversed row-major along the shared dimension `k`
//! (so the inner loop over `j` is contiguous and vectorizes) and `lhs`
//! is either row-major (`lhs(i, k) = a[i*ac + k]`, a scalar per `j`
//! sweep) or `k`-major (`lhs(i, k) = a[k*m + i]`, the natural layout of
//! `t_matmul`'s transposed operand). `matmul_t` materializes `Bᵀ` into
//! a thread-local scratch first — an `O(R·e)` copy that converts the
//! serial column-strided dot products of the naive form into the same
//! contiguous-`j` kernel, breaking the one-chain-per-element FMA
//! dependency that capped it near 1.5 GFLOP/s.
//!
//! ## Bit-exactness contract
//!
//! Every kernel — blocked, parallel, or reference — feeds each output
//! element its `k` contributions *in ascending order through a single
//! accumulator chain starting at `+0.0`*. The register micro-tiles and
//! `k`-blocks only reorder work *across* output elements: `k`-blocks
//! run in ascending order with partial sums parked in `out` between
//! blocks (an exact f32 store/load round-trip), so per element the
//! chain is unbroken. The parallel dispatch partitions output **rows** into
//! fixed-size chunks whose size depends only on the operand shapes —
//! never on the thread count — with each chunk written by exactly one
//! job through a disjoint `&mut` slab. There is no merge step and no
//! reduction tree, so results are fully bit-identical at any thread
//! count, and match the naive reference bit-for-bit on every non-NaN
//! value. (NaN *sign/payload* may differ from the reference: IEEE 754
//! leaves NaN propagation to the implementation, and instruction
//! operand order differs between loop shapes — NaN-ness itself always
//! agrees elementwise.) The references (and the kernels) have no
//! `== 0.0` fast path: `0.0 * NaN` is `NaN` and `0.0 * inf` is `NaN`,
//! exactly as IEEE 754 demands, so non-finite blowups propagate
//! instead of being silently zeroed (DESIGN.md §5g).
//!
//! All entry points accumulate into `out`. A zero-filled `out`
//! (`Matrix` allocates zeroed; the graph arena re-zeroes recycled
//! buffers) receives the product. An `out` that holds the partial sums
//! of a preceding stretch of the shared dimension continues every
//! element's chain, exactly as a parked `k`-block does: that is how
//! NeuMF's tape-free forward shares one user prefix across the rows of
//! a run.

use std::cell::Cell;
use std::slice::ChunksExact;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Worker threads the implicit entry points on [`crate::Matrix`] may
/// use. Defaults to 1 (fully serial); the trainer sets it from its
/// `threads` knob. Thread count never changes results (see the module
/// docs), only wall time.
static THREADS: AtomicUsize = AtomicUsize::new(1);

/// Sets the process-wide kernel thread budget, clamped to
/// `[1, available cores]`: oversubscribing a small machine only adds
/// dispatch overhead (results are thread-count-invariant either way,
/// so the clamp never changes bits).
pub fn set_threads(threads: usize) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    THREADS.store(threads.clamp(1, cores), Relaxed);
}

/// The current process-wide kernel thread budget.
pub fn threads() -> usize {
    THREADS.load(Relaxed)
}

/// Rows per register micro-tile.
const MR: usize = 4;
/// Columns per register micro-tile (two 8-lane f32 vectors).
const NR: usize = 16;
/// Columns of the narrow micro-tile that follows the last full `NR`
/// tile (one 8-lane vector): NeuMF's `d / 2` layer and the `24 = 16 + 8`
/// backward products land here instead of in the element pass.
const NR8: usize = 8;
/// Rows per one-column tile: the `n = 1` products (an output layer,
/// its `t_matmul` weight gradient) and the last `n % 8` columns keep
/// this many rows' chains in registers across a whole `k`-block.
const CR: usize = 8;
const _: () = assert!(CR.is_multiple_of(MR), "chunk rounding needs CR to cover MR");
/// `k`-block length: bounds the `rhs` strip each sweep touches so it
/// stays cache-resident. Blocks are visited in ascending order and
/// partial sums park in `out` between blocks, so every element still
/// receives its `k` contributions through one ascending chain.
const KC: usize = 512;

/// Minimum FLOPs before the parallel dispatch is worth its batch
/// bookkeeping; below this everything runs inline on the caller.
const PAR_MIN_FLOPS: usize = 1 << 20;
/// Target FLOPs per parallel chunk. Chunk size is a function of shape
/// only, so the row partition is identical at every thread count.
const PAR_CHUNK_FLOPS: usize = 1 << 22;

/// How the shared dimension is laid out in the left operand.
#[derive(Copy, Clone)]
enum Lhs<'a> {
    /// `lhs(i, k) = a[i*ac + k]` — `A` row-major (matmul, matmul_t).
    RowMajor { a: &'a [f32], ac: usize },
    /// `lhs(i, k) = a[k*m + i]` — the shared dim is `A`'s row axis
    /// (t_matmul reads its operand in storage order).
    KMajor { a: &'a [f32], m: usize },
}

#[inline(always)]
fn lhs_at(lhs: Lhs<'_>, i: usize, k: usize) -> f32 {
    match lhs {
        Lhs::RowMajor { a, ac } => a[i * ac + k],
        Lhs::KMajor { a, m } => a[k * m + i],
    }
}

/// `MR x W` register micro-tile over one `k`-block (`W` is [`NR`] or
/// [`NR8`]): accumulators live in registers across the whole block,
/// cutting `out` traffic to one load + one store per block (the
/// element pass reloads every output row once per `k`). Each
/// accumulator lane is one element's chain, fed `k` ascending —
/// bit-identical to the naive loop.
///
/// The layout is matched once per tile, not per element: a row-major
/// `lhs` is cut into its `MR` row slices up front (each `kw` long, so
/// `row[k]` needs no check), and a `k`-major one yields one `MR` slice
/// per `k`. `rhs_rows` are the block's `kw` rows of `rhs`, split once
/// per `k`-block by the caller: `chunks_exact` divides by the row
/// length, which per tile cost more than a `kw = 1` tile's work.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_body<const W: usize>(
    lhs: Lhs<'_>,
    i0: usize,
    i: usize,
    k0: usize,
    kw: usize,
    rhs_rows: ChunksExact<'_, f32>,
    n: usize,
    j0: usize,
    out: &mut [f32],
) {
    let mut acc = [[0.0f32; W]; MR];
    for (r, acc_r) in acc.iter_mut().enumerate() {
        acc_r.copy_from_slice(&out[(i + r) * n + j0..][..W]);
    }
    let step = |acc: &mut [[f32; W]; MR], lv: &[f32; MR], rhs_row: &[f32]| {
        let rv: &[f32; W] = rhs_row[j0..j0 + W].try_into().unwrap();
        for (acc_r, &lv) in acc.iter_mut().zip(lv) {
            for (o, &x) in acc_r.iter_mut().zip(rv) {
                *o += lv * x;
            }
        }
    };
    match lhs {
        Lhs::RowMajor { a, ac } => {
            let rows: [&[f32]; MR] = std::array::from_fn(|r| &a[(i0 + i + r) * ac + k0..][..kw]);
            for (k, rhs_row) in (0..kw).zip(rhs_rows) {
                step(&mut acc, &rows.map(|row| row[k]), rhs_row);
            }
        }
        Lhs::KMajor { a, m } => {
            for (k, rhs_row) in (k0..).zip(rhs_rows) {
                step(
                    &mut acc,
                    a[k * m + i0 + i..][..MR].try_into().unwrap(),
                    rhs_row,
                );
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        out[(i + r) * n + j0..][..W].copy_from_slice(acc_r);
    }
}

/// `CR x 1` tile over one `k`-block: column `j` of rows `i..i + CR`,
/// one register chain per row, `k` ascending. The operands are sliced
/// as in [`micro_body`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn column_body(
    lhs: Lhs<'_>,
    i0: usize,
    i: usize,
    k0: usize,
    kw: usize,
    rhs_rows: ChunksExact<'_, f32>,
    n: usize,
    j: usize,
    out: &mut [f32],
) {
    let mut acc = [0.0f32; CR];
    for (r, a) in acc.iter_mut().enumerate() {
        *a = out[(i + r) * n + j];
    }
    let step = |acc: &mut [f32; CR], lv: &[f32; CR], x: f32| {
        for (a, &lv) in acc.iter_mut().zip(lv) {
            *a += lv * x;
        }
    };
    match lhs {
        Lhs::RowMajor { a, ac } => {
            let rows: [&[f32]; CR] = std::array::from_fn(|r| &a[(i0 + i + r) * ac + k0..][..kw]);
            for (k, rhs_row) in (0..kw).zip(rhs_rows) {
                step(&mut acc, &rows.map(|row| row[k]), rhs_row[j]);
            }
        }
        Lhs::KMajor { a, m } => {
            for (k, rhs_row) in (k0..).zip(rhs_rows) {
                step(
                    &mut acc,
                    a[k * m + i0 + i..][..CR].try_into().unwrap(),
                    rhs_row[j],
                );
            }
        }
    }
    for (r, a) in acc.iter().enumerate() {
        out[(i + r) * n + j] = *a;
    }
}

/// Element pass for the row remainders: same accumulation order as
/// the tiles, no register blocking.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn scalar_edge(
    lhs: Lhs<'_>,
    i0: usize,
    k0: usize,
    kw: usize,
    ilo: usize,
    ihi: usize,
    rhs: &[f32],
    n: usize,
    jlo: usize,
    jhi: usize,
    out: &mut [f32],
) {
    for k in k0..k0 + kw {
        let rhs_row = &rhs[k * n + jlo..k * n + jhi];
        for ii in ilo..ihi {
            let lv = lhs_at(lhs, i0 + ii, k);
            let out_row = &mut out[ii * n + jlo..ii * n + jhi];
            for (o, &r) in out_row.iter_mut().zip(rhs_row) {
                *o += lv * r;
            }
        }
    }
}

/// Accumulates `out[i0..i0+iw) x [0, n)` of `lhs · rhs`; `out` is the
/// slab for exactly those rows. `k` contributions ascend per element:
/// `k`-blocks run in ascending order (partial sums parked in `out`
/// between blocks), and within a block each element is touched by
/// exactly one tile or edge pass, again with `k` ascending.
///
/// Tile layout per `k`-block, left to right: `MR x 16` tiles over the
/// first `n - n % 16` columns, one `MR x 8` tile if `n % 16 >= 8`,
/// then `CR x 1` tiles over each of the last `n % 8` columns. The
/// element pass covers only the row remainders (`iw % MR` under the
/// wide tiles, `iw % CR` under the column tiles).
#[inline(always)]
fn block_body(
    lhs: Lhs<'_>,
    k_dim: usize,
    i0: usize,
    iw: usize,
    rhs: &[f32],
    n: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), iw * n);
    if n == 0 || iw == 0 || k_dim == 0 {
        return;
    }
    let n16 = n - n % NR;
    let n8 = n - n % NR8;
    let i_main = iw - iw % MR;
    let i_col = iw - iw % CR;
    let mut k0 = 0;
    while k0 < k_dim {
        let kw = KC.min(k_dim - k0);
        // This block's rows of `rhs`, split once for all its tiles.
        let rhs_rows = rhs[k0 * n..(k0 + kw) * n].chunks_exact(n);
        let mut j0 = 0;
        while j0 < n16 {
            for i in (0..i_main).step_by(MR) {
                micro_body::<NR>(lhs, i0, i, k0, kw, rhs_rows.clone(), n, j0, out);
            }
            if i_main < iw {
                scalar_edge(lhs, i0, k0, kw, i_main, iw, rhs, n, j0, j0 + NR, out);
            }
            j0 += NR;
        }
        if n16 < n8 {
            for i in (0..i_main).step_by(MR) {
                micro_body::<NR8>(lhs, i0, i, k0, kw, rhs_rows.clone(), n, n16, out);
            }
            if i_main < iw {
                scalar_edge(lhs, i0, k0, kw, i_main, iw, rhs, n, n16, n8, out);
            }
        }
        if n8 < n {
            for j in n8..n {
                for i in (0..i_col).step_by(CR) {
                    column_body(lhs, i0, i, k0, kw, rhs_rows.clone(), n, j, out);
                }
            }
            if i_col < iw {
                scalar_edge(lhs, i0, k0, kw, i_col, iw, rhs, n, n8, n, out);
            }
        }
        k0 += kw;
    }
}

fn block_portable(
    lhs: Lhs<'_>,
    k_dim: usize,
    i0: usize,
    iw: usize,
    rhs: &[f32],
    n: usize,
    out: &mut [f32],
) {
    block_body(lhs, k_dim, i0, iw, rhs, n, out);
}

/// The same block compiled for AVX2 (8-lane f32) and selected at
/// runtime. Only the kernels are feature-gated (this block and the
/// `transcendental` slice kernels): building the whole crate for a
/// wider ISA slows the elementwise ops that still call libm (AVX↔SSE
/// transition penalties around every call), while the tiles are pure
/// mul/add and only get wider lanes. Vector
/// width never changes results — each output element keeps its own
/// scalar-order accumulation chain (no horizontal reductions, no float
/// contraction), so portable and AVX2 copies agree bit-for-bit on
/// every non-NaN value.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn block_avx2(
    lhs: Lhs<'_>,
    k_dim: usize,
    i0: usize,
    iw: usize,
    rhs: &[f32],
    n: usize,
    out: &mut [f32],
) {
    block_body(lhs, k_dim, i0, iw, rhs, n, out);
}

/// Runs the widest block the host supports (cached by std's
/// feature-detection macro). The choice is a property of the machine,
/// not of the thread count or shape, so dispatch cannot introduce
/// nondeterminism within a run.
fn block(lhs: Lhs<'_>, k_dim: usize, i0: usize, iw: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: gated on runtime AVX2 detection; the function body
        // is ordinary safe Rust, only its codegen needs the feature.
        return unsafe { block_avx2(lhs, k_dim, i0, iw, rhs, n, out) };
    }
    block_portable(lhs, k_dim, i0, iw, rhs, n, out);
}

/// Shared dispatch: partitions the `out_rows` of the product into
/// shape-determined chunks and runs them over the global worker pool
/// when the work is large enough, inline otherwise.
fn run_blocked(lhs: Lhs<'_>, k_dim: usize, rhs: &[f32], n: usize, out: &mut [f32], threads: usize) {
    let out_rows = out.len().checked_div(n).unwrap_or(0);
    debug_assert_eq!(out.len(), out_rows * n);
    let flops_per_row = 2 * k_dim * n;
    let total_flops = flops_per_row * out_rows;
    // Chunks are rounded to a multiple of both tile heights (`CR` is a
    // multiple of `MR`) so every chunk's tile/edge row split matches
    // the serial full-slab pass — the instruction path per row (and so
    // even NaN payload propagation) is then identical at every thread
    // count.
    let chunk_rows = PAR_CHUNK_FLOPS
        .div_ceil(flops_per_row.max(1))
        .next_multiple_of(CR)
        .clamp(1, out_rows.max(1));
    if threads <= 1 || total_flops < PAR_MIN_FLOPS || chunk_rows >= out_rows {
        block(lhs, k_dim, 0, out_rows, rhs, n, out);
        return;
    }
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = out
        .chunks_mut(chunk_rows * n)
        .enumerate()
        .map(|(c, slab)| {
            let i0 = c * chunk_rows;
            let iw = slab.len() / n;
            Box::new(move || block(lhs, k_dim, i0, iw, rhs, n, slab)) as Box<dyn FnOnce() + Send>
        })
        .collect();
    runtime::global().run(threads, jobs);
}

/// `out += A·B` for row-major `a` (`ar x ac`) and `b` (`ac x bc`);
/// `out` is `ar x bc`, zero-filled by the caller.
pub fn matmul(
    a: &[f32],
    ar: usize,
    ac: usize,
    b: &[f32],
    bc: usize,
    out: &mut [f32],
    threads: usize,
) {
    debug_assert_eq!(a.len(), ar * ac);
    debug_assert_eq!(b.len(), ac * bc);
    debug_assert_eq!(out.len(), ar * bc);
    run_blocked(Lhs::RowMajor { a, ac }, ac, b, bc, out, threads);
}

/// `out += Aᵀ·B` for row-major `a` (`k x ac`) and `b` (`k x bc`);
/// `out` is `ac x bc`, zero-filled by the caller. `a` is consumed in
/// storage order (its row axis *is* the shared dimension).
pub fn t_matmul(
    a: &[f32],
    k: usize,
    ac: usize,
    b: &[f32],
    bc: usize,
    out: &mut [f32],
    threads: usize,
) {
    debug_assert_eq!(a.len(), k * ac);
    debug_assert_eq!(b.len(), k * bc);
    debug_assert_eq!(out.len(), ac * bc);
    run_blocked(Lhs::KMajor { a, m: ac }, k, b, bc, out, threads);
}

thread_local! {
    /// Reusable `Bᵀ` scratch for [`matmul_t`]. Taken (not borrowed)
    /// around each use, so re-entrant calls degrade to a fresh
    /// allocation instead of a borrow panic.
    static TRANSPOSE_SCRATCH: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// `out += A·Bᵀ` for row-major `a` (`ar x ac`) and `b` (`br x ac`);
/// `out` is `ar x br`, zero-filled by the caller. Materializes `Bᵀ`
/// into thread-local scratch, then runs the row-major kernel — the
/// per-element `k` order is identical to the naive dot-product form.
pub fn matmul_t(
    a: &[f32],
    ar: usize,
    ac: usize,
    b: &[f32],
    br: usize,
    out: &mut [f32],
    threads: usize,
) {
    debug_assert_eq!(a.len(), ar * ac);
    debug_assert_eq!(b.len(), br * ac);
    debug_assert_eq!(out.len(), ar * br);
    let mut bt = TRANSPOSE_SCRATCH.with(Cell::take);
    transpose_into(b, br, ac, &mut bt);
    run_blocked(Lhs::RowMajor { a, ac }, ac, &bt, br, out, threads);
    TRANSPOSE_SCRATCH.with(|cell| cell.set(bt));
}

/// Writes the `cols x rows` transpose of row-major `src` into `dst`.
/// A band of 32 source rows stays cache-resident while every output row
/// takes its stretch of up to 32 elements from the band's row slices,
/// so no element needs index arithmetic or a bounds check (`c < cols`,
/// the slices' length).
pub fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut Vec<f32>) {
    debug_assert_eq!(src.len(), rows * cols);
    // Every entry is overwritten below, so a recycled scratch keeps its
    // stale contents; `resize` only pays to fill the newly grown region
    // (a no-op in the steady state).
    dst.resize(rows * cols, 0.0);
    if rows == 0 || cols == 0 {
        return;
    }
    const T: usize = 32;
    for (r0, band) in (0..).step_by(T).zip(src.chunks(T * cols)) {
        for (c, dst_row) in (0..cols).zip(dst.chunks_exact_mut(rows)) {
            for (d, src_row) in dst_row[r0..].iter_mut().zip(band.chunks_exact(cols)) {
                *d = src_row[c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The parallel row partition must depend on shape alone — spelled
    /// out here because the determinism contract hangs on it.
    #[test]
    fn chunking_is_a_function_of_shape_only() {
        let flops_per_row = 2 * 64 * 300;
        let chunk = PAR_CHUNK_FLOPS.div_ceil(flops_per_row).clamp(1, 500);
        // Same arithmetic regardless of any thread knob.
        assert_eq!(chunk, PAR_CHUNK_FLOPS.div_ceil(flops_per_row).clamp(1, 500));
        assert!(chunk >= 1);
    }

    /// The portable and AVX2 codegen of the one block body must agree
    /// bit for bit on every non-NaN value, and on NaN-ness, across the
    /// 16-wide, 8-wide and one-column tiles and their row edges, for
    /// both operand layouts and across a `k`-block boundary. A block
    /// that starts at row `i0 > 0` (a parallel chunk) must read the
    /// tiles' `lhs` slices from row `i0 + i` and so match those rows of
    /// the whole product.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn portable_and_avx2_blocks_agree_on_narrow_shapes() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut fill = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    match (state >> 33) % 29 {
                        0 => -0.0,
                        1 => 0.0,
                        2 => f32::NAN,
                        3 => f32::INFINITY,
                        _ => ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5,
                    }
                })
                .collect()
        };
        let canon = |v: &[f32]| -> Vec<u32> {
            v.iter()
                .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
                .collect()
        };
        for m in [1, 3, 4, 7, 8, 9, 13, 17] {
            for k in [1, 2, 16, 24, KC + 3] {
                for n in [1, 2, 7, 8, 9, 15, 16, 17, 24, 25, 33] {
                    for i0 in [0, 5] {
                        let rows = i0 + m;
                        let a = fill(rows * k);
                        let rhs = fill(k * n);
                        let layouts = [
                            Lhs::RowMajor { a: &a, ac: k },
                            Lhs::KMajor { a: &a, m: rows },
                        ];
                        for lhs in layouts {
                            let mut whole = vec![0.0; rows * n];
                            block_portable(lhs, k, 0, rows, &rhs, n, &mut whole);
                            let mut portable = vec![0.0; m * n];
                            block_portable(lhs, k, i0, m, &rhs, n, &mut portable);
                            let mut avx2 = vec![0.0; m * n];
                            // SAFETY: AVX2 was detected above.
                            unsafe { block_avx2(lhs, k, i0, m, &rhs, n, &mut avx2) };
                            let shape = format!("{m}x{k}x{n} from row {i0}");
                            assert_eq!(canon(&portable), canon(&avx2), "{shape}");
                            assert_eq!(canon(&portable), canon(&whole[i0 * n..]), "{shape}");
                        }
                    }
                }
            }
        }
    }

    /// The band copy must write what the per-element definition does,
    /// across band edges (31, 32, 33, 70) and empty sides, into a
    /// recycled scratch that starts longer than the result.
    #[test]
    fn transpose_into_matches_naive() {
        let dims = [0, 1, 31, 32, 33, 70];
        let mut t = vec![f32::NAN; 80 * 80];
        for rows in dims {
            for cols in dims {
                let src: Vec<f32> = (0..rows * cols).map(|x| x as f32).collect();
                transpose_into(&src, rows, cols, &mut t);
                let mut naive = vec![0.0; rows * cols];
                for r in 0..rows {
                    for c in 0..cols {
                        naive[c * rows + r] = src[r * cols + c];
                    }
                }
                assert_eq!(t, naive, "{rows}x{cols}");
            }
        }
    }

    #[test]
    fn degenerate_dims_are_noops() {
        let mut out: Vec<f32> = Vec::new();
        matmul(&[], 0, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, &mut out, 4);
        let mut out = vec![0.0; 4];
        // Shared dim 0: the zeroed output is the correct product.
        matmul(&[], 2, 0, &[], 2, &mut out, 4);
        assert_eq!(out, vec![0.0; 4]);
        let mut out = vec![0.0; 4];
        t_matmul(&[], 0, 2, &[], 2, &mut out, 1);
        assert_eq!(out, vec![0.0; 4]);
    }
}
