//! Bit-exact ports of the platform libm's `tanhf`, `expm1f` and
//! `expf`, and the slice kernels that the tape's `Tanh` and `Sigmoid`
//! forwards run.
//!
//! ## The ports
//!
//! The scalar functions reproduce glibc 2.36 on x86-64 bit for bit:
//!
//! * [`tanhf`] and [`expm1f`] are fdlibm's `s_tanhf.c` over
//!   `s_expm1f.c`, built for baseline SSE2: every operation rounds to
//!   f32 on its own, with no contraction.
//! * [`expf`] is the FMA variant of the 32-entry-table `e_expf.c` that
//!   glibc's ifunc selects on an AVX2+FMA host. It reduces in f64 with
//!   `kd = fma(InvLn2N, xd, SHIFT)` and
//!   `r = fma(InvLn2N, xd, -(kd - SHIFT))`, evaluates its cubic with
//!   three more fmas and scales by the table entry.
//! * [`sigmoid`] is [`crate::stable_sigmoid`] over the ported `expf`.
//!
//! Constants, thresholds and operation order are the ones in the
//! host's `libm.so.6` (`objdump -d` of `tanhf`, `expm1f` and the FMA
//! target of the `expf` ifunc). `tests/transcendental.rs` checks the
//! ports and the kernels against the platform on every 4099th bit
//! pattern and at the edges of every branch; its ignored tests check
//! both on all 2^32 inputs.
//!
//! ## The kernels
//!
//! [`tanh_into`] and [`sigmoid_into`] follow `kernel::block`: one
//! `#[inline(always)]` branch-free body, compiled inside an AVX2+FMA
//! wrapper, over which LLVM vectorizes the slice loop. The body is
//! exact on a fast range only: `2^-26 <= |x| < 7.5` for `tanh` (there
//! `expm1f` takes none of its tiny or huge exits and its `k` stays in
//! `-3..=22`), and `|a| < 88` for sigmoid's `expf` argument (below
//! `expf`'s special cases). The loop gives every lane the body's value
//! and only ORs a flag for lanes outside the range; a separate
//! non-inlined pass then recomputes those lanes with the scalar ports.
//! That pass stays out of the loop: a call the vectorizer must
//! if-convert keeps the loop scalar, and no faster than libm.
//!
//! ## Selection
//!
//! The kernels run only if the host has AVX2 and FMA and they agree
//! with the platform's `f32::tanh` and [`crate::stable_sigmoid`] on a
//! fixed probe set, checked once per process ([`fast_kernels`]).
//! Otherwise both entry points map the platform functions. Either way
//! the results are the platform libm's bits, so nothing chooses
//! between them but the host.

// The slice bodies and range tests serve only the x86-64 kernels.
#![cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]

use std::sync::OnceLock;

// ---- expm1f and tanhf (fdlibm) ---------------------------------------------

const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);
/// `expm1f` overflow threshold, 88.7216796875.
const O_THRESHOLD: f32 = f32::from_bits(0x42b1_7180);
/// fdlibm's `tiny`, 1e-30.
const TINY: f32 = f32::from_bits(0x0da2_4260);

/// `expm1f` past its exits: `x` is finite, `|x| >= 2^-25`, `x` is not
/// `<= -27 ln2` and not above the overflow threshold. Every branch on
/// `k` is computed and one is selected, so the body vectorizes.
#[inline(always)]
fn expm1f_core(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let neg = x.is_sign_negative();
    // |x| <= 0.5 ln2 needs no reduction; below 1.5 ln2, k = ±1. The
    // shared reduction below gives fdlibm's values for both, as
    // `0 * LN2_HI` and `±1 * LN2_HI` are exact.
    let k: i32 = if hx <= 0x3eb1_7218 {
        0
    } else if hx < 0x3f85_1592 {
        if neg {
            -1
        } else {
            1
        }
    } else {
        // fdlibm converts with truncation. `as i32` would saturate
        // lane by lane; the guard keeps the plain conversion defined on
        // lanes outside the ports' domain (NaN, huge), which get 0.
        let kf = INVLN2 * x + if neg { -0.5 } else { 0.5 };
        if kf.abs() < 256.0 {
            // SAFETY: |kf| < 256 truncates to an in-range i32.
            unsafe { kf.to_int_unchecked() }
        } else {
            0
        }
    };
    let t = k as f32;
    let hi = x - t * LN2_HI;
    let lo = t * LN2_LO;
    let x = hi - lo;
    let c = (hi - x) - lo;

    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    let k_zero = x - (x * e - hxs);

    let e = (x * (e - c) - c) - hxs;
    let k_minus_one = 0.5 * (x - e) - 0.5;
    let k_one = if x < -0.25 {
        -2.0 * (e - (x + 0.5))
    } else {
        1.0 + 2.0 * (x - e)
    };
    // Adds k to an exponent field.
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));
    let k_far = scale(1.0 - (e - x)) - 1.0;
    // `1 - 2^-k` for k < 23, `2^-k` above.
    let t_small = f32::from_bits(0x3f80_0000 - 0x0100_0000u32.wrapping_shr(k as u32));
    let k_small = scale(t_small - (e - x));
    let t_large = f32::from_bits((0x7f - k).wrapping_shl(23) as u32);
    let k_large = scale((x - (e + t_large)) + 1.0);
    match k {
        0 => k_zero,
        -1 => k_minus_one,
        1 => k_one,
        k if k <= -2 || k > 56 => k_far,
        k if k < 23 => k_small,
        _ => k_large,
    }
}

/// glibc 2.36's `expm1f`, bit for bit.
pub fn expm1f(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    if hx >= 0x4195_b844 {
        // |x| >= 27 ln2
        if hx >= 0x42b1_7218 {
            if hx > 0x7f80_0000 {
                return x + x;
            }
            if hx == 0x7f80_0000 {
                return if x > 0.0 { x } else { -1.0 };
            }
            if x > O_THRESHOLD {
                return f32::INFINITY;
            }
        }
        if x < 0.0 {
            return TINY - 1.0;
        }
    } else if hx < 0x3300_0000 {
        // |x| < 2^-25
        return x;
    }
    expm1f_core(x)
}

/// `tanh` for `2^-55 <= |x| < 22` over the given `expm1f`.
#[inline(always)]
fn tanh_core(x: f32, expm1: impl Fn(f32) -> f32) -> f32 {
    let ax = x.abs();
    let big = ax >= 1.0;
    let t = expm1(if big { ax + ax } else { -2.0 * ax });
    let q = if big { 2.0 } else { -t } / (t + 2.0);
    let z = if big { 1.0 - q } else { q };
    f32::from_bits(z.to_bits() ^ (x.to_bits() & 0x8000_0000))
}

/// glibc 2.36's `tanhf`, bit for bit.
pub fn tanhf(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    if ix >= 0x7f80_0000 {
        // ±inf or NaN
        return if x.is_sign_negative() {
            1.0 / x - 1.0
        } else {
            1.0 / x + 1.0
        };
    }
    if ix == 0 {
        return x;
    }
    if ix < 0x2400_0000 {
        // |x| < 2^-55
        return x * (1.0 + x);
    }
    if ix >= 0x41b0_0000 {
        // |x| >= 22
        let z = 1.0 - TINY;
        return if x.is_sign_negative() { -z } else { z };
    }
    tanh_core(x, expm1f)
}

// ---- expf (glibc's FMA variant) --------------------------------------------

/// `N / ln 2` for the table size `N = 32`.
const INVLN2N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `1.5 * 2^52`: adding it rounds to an integer in the low bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
const C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
const C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
const C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);
/// `2^(i/32)` with the exponent bits of `i << 47` taken out.
const EXP2F_TAB: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];

/// `expf` past its special cases (`|x| < 88`, or finite and between
/// `-103.28` and `88.72`).
#[inline(always)]
fn expf_core(x: f32) -> f32 {
    let xd = f64::from(x);
    let kd = INVLN2N.mul_add(xd, SHIFT);
    let ki = kd.to_bits();
    let r = INVLN2N.mul_add(xd, -(kd - SHIFT));
    let s = f64::from_bits(EXP2F_TAB[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = C0.mul_add(r, C1);
    let r2 = r * r;
    let y = C2.mul_add(r, 1.0);
    (z.mul_add(r2, y) * s) as f32
}

/// glibc 2.36's `expf` as its ifunc runs it on an FMA host, bit for
/// bit. Without hardware FMA `mul_add` is a libm call, slower but the
/// same bits.
pub fn expf(x: f32) -> f32 {
    if (x.to_bits() >> 20) & 0x7ff >= 0x42b {
        // |x| >= 88 or NaN
        if x == f32::NEG_INFINITY {
            return 0.0;
        }
        if x.to_bits() & 0x7fff_ffff >= 0x7f80_0000 {
            return x + x;
        }
        if x > f32::from_bits(0x42b1_7217) {
            return f32::INFINITY;
        }
        if x < f32::from_bits(0xc2cf_f1b4) {
            return 0.0;
        }
        if x < f32::from_bits(0xc2ce_8ecf) {
            // Rounds to the least subnormal in every x here.
            return f32::from_bits(1);
        }
    }
    expf_core(x)
}

/// [`crate::stable_sigmoid`] over the given `exp`.
#[inline(always)]
fn sigmoid_core(x: f32, exp: impl Fn(f32) -> f32) -> f32 {
    // `-|x|` is the argument of both arms (`exp(-0) = exp(0)`); as a
    // select it would be turned into two copies of the `exp` path.
    let e = exp(-x.abs());
    (if x >= 0.0 { 1.0 } else { e }) / (1.0 + e)
}

/// [`crate::stable_sigmoid`] over the ported [`expf`], bit for bit.
pub fn sigmoid(x: f32) -> f32 {
    sigmoid_core(x, expf)
}

// ---- slice kernels ---------------------------------------------------------

/// Lanes whose `tanh` the branch-free body gets right: `2^-26 <= |x| < 7.5`.
#[inline(always)]
fn tanh_fast(x: f32) -> bool {
    (0x3280_0000..0x40f0_0000).contains(&(x.to_bits() & 0x7fff_ffff))
}

/// Lanes whose sigmoid the branch-free body gets right: `|x| < 88`.
#[inline(always)]
fn sigmoid_fast(x: f32) -> bool {
    x.to_bits() & 0x7fff_ffff < 0x42b0_0000
}

/// The one vector loop: every lane gets `lane(x)`; the return value
/// says whether any lane lies outside `fast`.
#[inline(always)]
fn map_body(
    src: &[f32],
    dst: &mut [f32],
    lane: impl Fn(f32) -> f32,
    fast: impl Fn(f32) -> bool,
) -> bool {
    let mut rare = false;
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = lane(x);
        rare |= !fast(x);
    }
    rare
}

/// Recomputes the lanes outside `fast` with the scalar port.
#[inline(always)]
fn rare_body(src: &[f32], dst: &mut [f32], port: fn(f32) -> f32, fast: fn(f32) -> bool) {
    for (d, &x) in dst.iter_mut().zip(src) {
        if !fast(x) {
            *d = port(x);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn tanh_avx2(src: &[f32], dst: &mut [f32]) {
    if map_body(src, dst, |x| tanh_core(x, expm1f_core), tanh_fast) {
        tanh_rare(src, dst);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline(never)]
fn tanh_rare(src: &[f32], dst: &mut [f32]) {
    rare_body(src, dst, tanhf, tanh_fast);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn sigmoid_avx2(src: &[f32], dst: &mut [f32]) {
    if map_body(src, dst, |x| sigmoid_core(x, expf_core), sigmoid_fast) {
        sigmoid_rare(src, dst);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline(never)]
fn sigmoid_rare(src: &[f32], dst: &mut [f32]) {
    rare_body(src, dst, sigmoid, sigmoid_fast);
}

/// Inputs at the edges of the ports' branches (each also taken
/// negated by the probe and the tests): zero, the subnormal and normal
/// limits, `2^-55`, `2^-26`, `2^-25`, `0.5 ln2`, `1.5 ln2`, 1, 7.5, 22,
/// `27 ln2`, 88, the two 88.72 thresholds, 103.28, 103.97, `f32::MAX`,
/// infinity and NaN.
pub const EDGES: [f32; 21] = [
    0.0,
    f32::from_bits(1),
    f32::from_bits(0x007f_ffff),
    f32::MIN_POSITIVE,
    f32::from_bits(0x2400_0000),
    f32::from_bits(0x3280_0000),
    f32::from_bits(0x3300_0000),
    f32::from_bits(0x3eb1_7218),
    f32::from_bits(0x3f85_1592),
    1.0,
    7.5,
    22.0,
    f32::from_bits(0x4195_b844),
    88.0,
    f32::from_bits(0x42b1_7180),
    f32::from_bits(0x42b1_7217),
    f32::from_bits(0x42ce_8ecf),
    f32::from_bits(0x42cf_f1b4),
    f32::MAX,
    f32::INFINITY,
    f32::NAN,
];

/// Whether [`tanh_into`] and [`sigmoid_into`] run the AVX2+FMA
/// kernels: the host has both features, and the kernels matched the
/// platform libm on the probe set (the edges, their neighbours and
/// negations, 4096 bit patterns over every sign and exponent, and a
/// 1/64 grid over `[-32, 32)`). Decided once per process.
pub fn fast_kernels() -> bool {
    static SELECTED: OnceLock<bool> = OnceLock::new();
    *SELECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            let mut probe: Vec<f32> = EDGES
                .iter()
                .flat_map(|&x| [x, x.next_up(), x.next_down()])
                .flat_map(|x| [x, -x])
                .collect();
            probe.extend(
                (0..4096u32).map(|i| f32::from_bits(i << 20 | (i.wrapping_mul(0x9e37_79b9) >> 12))),
            );
            probe.extend((-2048..2048).map(|i| i as f32 / 64.0));
            let mut out = vec![0.0; probe.len()];
            let same = |out: &[f32], libm: fn(f32) -> f32| {
                out.iter().zip(&probe).all(|(y, &x)| {
                    y.to_bits() == libm(x).to_bits() || y.is_nan() && libm(x).is_nan()
                })
            };
            // SAFETY: AVX2 and FMA were detected above.
            unsafe { tanh_avx2(&probe, &mut out) };
            if !same(&out, f32::tanh) {
                return false;
            }
            // SAFETY: as above.
            unsafe { sigmoid_avx2(&probe, &mut out) };
            return same(&out, crate::stable_sigmoid);
        }
        false
    })
}

/// `dst[i] = src[i].tanh()`, the platform libm's bits.
pub fn tanh_into(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "tanh_into length mismatch");
    #[cfg(target_arch = "x86_64")]
    if fast_kernels() {
        // SAFETY: `fast_kernels` detected AVX2 and FMA.
        return unsafe { tanh_avx2(src, dst) };
    }
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = x.tanh();
    }
}

/// `dst[i] = stable_sigmoid(src[i])`, the platform libm's bits.
pub fn sigmoid_into(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "sigmoid_into length mismatch");
    #[cfg(target_arch = "x86_64")]
    if fast_kernels() {
        // SAFETY: `fast_kernels` detected AVX2 and FMA.
        return unsafe { sigmoid_avx2(src, dst) };
    }
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = crate::stable_sigmoid(x);
    }
}
