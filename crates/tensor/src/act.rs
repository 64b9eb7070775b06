//! Activation kernels: `exp`, `sigmoid`, `tanh` and `ln` on `f32`, with
//! the exact bits of the libm the workspace's pinned results were
//! captured with, and 8- and 16-lane slice kernels for the recurrent hot
//! paths.
//!
//! ## Reference algorithms
//!
//! The scalar functions are ports of the x86-64 glibc 2.36 routines that
//! `f32::exp`, `f32::tanh` and `f32::ln` reach on an AVX2+FMA host, so
//! they return the same bits for every one of the 2^32 inputs, NaN
//! payloads included:
//!
//! * [`exp`] — glibc `expf`, FMA variant (the one glibc's ifunc picks on
//!   FMA hosts): `x·32/ln2 = k + r` in double precision, `2^(k/32)` from a
//!   32-entry table, a cubic in `r`. The reduction and the polynomial use
//!   fused multiply-adds exactly where that build does.
//! * [`ln`] — glibc `logf`, FMA variant: a 16-entry `(1/c, ln c)` table
//!   and three fused polynomial steps.
//! * [`tanh`] — fdlibm `tanhf` over fdlibm `expm1f`, plain `f32`
//!   arithmetic with no contraction, as glibc builds them.
//! * [`sigmoid`] — `1/(1+exp(-x))` for `x >= 0`, `e/(1+e)` with
//!   `e = exp(x)` otherwise.
//!
//! Pinning the algorithms here also pins the results to them: the bits no
//! longer depend on the host's libm or on which `expf` variant its CPU
//! selects.
//!
//! ## Slice kernels
//!
//! [`exp_inplace`], [`sigmoid_inplace`] and [`tanh_inplace`] run the
//! same operations on 16 lanes at once when the CPU has AVX-512F and DQ,
//! on 8 lanes when it has AVX2 and FMA, as [`Simd::host`] decides for
//! `gemm` too. The 16-lane kernels are the 8-lane ones with mask
//! registers in place of `blendv` selects and a two-register permute in
//! place of the table gather. Only the ordinary range takes a lane path:
//! `|x| < 88` for `exp` and `sigmoid`, `2^-55 <= |x| < 22` for `tanh`.
//! Any other lane — NaN, infinities, overflow and underflow, the tiny and
//! saturated ends of `tanh` — is recomputed by the scalar reference, so
//! every output equals the scalar reference's bit for bit. On a CPU
//! without AVX2 or FMA the slice kernels loop over the scalar functions.
//!
//! ## FMA dispatch of the scalar functions
//!
//! [`exp`], [`sigmoid`], [`tanh`] and [`ln`] share one runtime check:
//! when the CPU has FMA they run their reference code compiled with the
//! `fma` target feature, so each `mul_add` is one instruction; otherwise
//! they run the portable build of the same code, whose `mul_add` is a
//! call into the software `fma`. A fused multiply-add is correctly
//! rounded either way, so both builds give the same bits.
//!
//! [`Matrix::apply_cols`](crate::Matrix::apply_cols) feeds column
//! segments of a whole batch through one kernel call, so an LSTM or GRU
//! step activates every row's gates together.

use crate::simd::Simd;

/// `EXP_TAB[i]` is the bit pattern of `2^(i/32)` minus `i << 47`: adding
/// `ki << 47` for any `ki ≡ i (mod 32)` gives the bits of `2^(ki/32)`
/// (glibc `__exp2f_data.tab`).
const EXP_TAB: [u64; 32] = [
    0x3ff0_0000_0000_0000,
    0x3fef_d9b0_d315_8574,
    0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b,
    0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238,
    0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb,
    0x3fee_dea6_4c12_3422,
    0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27,
    0x3fee_b42b_569d_4f82,
    0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd,
    0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187,
    0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5,
    0x3fee_c491_82a3_f090,
    0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad,
    0x3fee_ff76_f2fb_5e47,
    0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487,
    0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da,
    0x3fef_d076_5b6e_4540,
];
/// `32 / ln 2`.
const EXP_INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `0x1.8p52`: adding it rounds to an integer held in the low mantissa
/// bits.
const EXP_SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// `2^(r/32) ≈ C0·r³ + C1·r² + C2·r + 1`.
const EXP_C: [f64; 3] = [
    f64::from_bits(0x3ebc_6af8_4b91_2394),
    f64::from_bits(0x3f2e_bfce_50fa_c4f3),
    f64::from_bits(0x3f96_2e42_ff0c_52d6),
];

/// `(1/c, ln c)` for the 16 subintervals of `[0x3f330000, 2·0x3f330000)`
/// (glibc `__logf_data.tab`).
const LN_TAB: [(u64, u64); 16] = [
    (0x3ff6_61ec_79f8_f3be, 0xbfd5_7bf7_808c_aade),
    (0x3ff5_71ed_4aaf_883d, 0xbfd2_bef0_a7c0_6ddb),
    (0x3ff4_9539_f0f0_10b0, 0xbfd0_1eae_7f51_3a67),
    (0x3ff3_c995_b0b8_0385, 0xbfcb_31d8_a682_24e9),
    (0x3ff3_0d19_0c88_64a5, 0xbfc6_574f_0ac0_7758),
    (0x3ff2_5e22_7b0b_8ea0, 0xbfc1_aa2b_c79c_8100),
    (0x3ff1_bb4a_4a1a_343f, 0xbfba_4e76_ce8c_0e5e),
    (0x3ff1_2358_f08a_e5ba, 0xbfb1_973c_5a61_1ccc),
    (0x3ff0_953f_4199_00a7, 0xbfa2_52f4_38e1_0c1e),
    (0x3ff0_0000_0000_0000, 0x0000_0000_0000_0000),
    (0x3fee_608c_fd9a_47ac, 0x3faa_a5aa_5df2_5984),
    (0x3fec_a4b3_1f02_6aa0, 0x3fbc_5e53_aa36_2eb4),
    (0x3feb_2036_576a_fce6, 0x3fc5_26e5_7720_db08),
    (0x3fe9_c2d1_63a1_aa2d, 0x3fcb_c286_0d22_4770),
    (0x3fe8_86e6_0378_41ed, 0x3fd1_058b_c8a0_7ee1),
    (0x3fe7_67dc_f553_4862, 0x3fd4_0430_57b6_ee09),
];
/// `ln 2`.
const LN2: f64 = f64::from_bits(0x3fe6_2e42_fefa_39ef);
/// `ln(1+r) ≈ A0·r⁴ + A1·r³ + A2·r² + r`, evaluated as
/// `(A0·r² + A1·r + A2)·r² + r`.
const LN_A: [f64; 3] = [
    f64::from_bits(0xbfd0_0ea3_48b8_8334),
    f64::from_bits(0x3fd5_575b_0be0_0b6a),
    f64::from_bits(0xbfdf_fffe_f20a_4123),
];

// fdlibm `expm1f` constants.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// `e^x` (glibc `expf`).
#[inline]
pub fn exp(x: f32) -> f32 {
    dispatch::<EXP>(x)
}

#[inline(always)]
fn exp_ref(x: f32) -> f32 {
    // |x| >= 88, or NaN.
    if x.to_bits() & 0x7fff_ffff >= 0x42b0_0000 {
        return exp_special(x);
    }
    exp_core(x)
}

/// `exp` outside `|x| < 88`: glibc's special cases, then the ordinary
/// path for the finite inputs that neither overflow nor underflow.
/// Inlined, so the FMA build covers it too.
#[inline(always)]
fn exp_special(x: f32) -> f32 {
    if x == f32::NEG_INFINITY {
        0.0
    } else if !x.is_finite() {
        x + x
    } else if x > f32::from_bits(0x42b1_7217) {
        f32::INFINITY
    } else if x < f32::from_bits(0xc2cf_f1b4) {
        0.0
    } else if x < f32::from_bits(0xc2ce_8ecf) {
        // glibc's "may underflow" result: 0x1.4p-75² rounds to the
        // smallest subnormal.
        let y = f32::from_bits(0x1a20_0000);
        y * y
    } else {
        exp_core(x)
    }
}

#[inline(always)]
fn exp_core(x: f32) -> f32 {
    let xd = x as f64;
    let kd = EXP_INV_LN2_N.mul_add(xd, EXP_SHIFT);
    let ki = kd.to_bits();
    let kd = kd - EXP_SHIFT;
    let r = EXP_INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(EXP_TAB[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = EXP_C[0].mul_add(r, EXP_C[1]);
    let r2 = r * r;
    let y = EXP_C[2].mul_add(r, 1.0);
    let y = z.mul_add(r2, y);
    (y * s) as f32
}

/// Logistic sigmoid, `1/(1+e^-x)`, evaluated so that no `exp` overflows.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    dispatch::<SIGMOID>(x)
}

#[inline(always)]
fn sigmoid_ref(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + exp_ref(-x))
    } else {
        let e = exp_ref(x);
        e / (1.0 + e)
    }
}

/// Hyperbolic tangent (fdlibm `tanhf`).
#[inline]
pub fn tanh(x: f32) -> f32 {
    dispatch::<TANH>(x)
}

#[inline(always)]
fn tanh_ref(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    if ix >= 0x7f80_0000 {
        // tanh(±inf) = ±1; NaN in, NaN out.
        return if jx >> 31 == 0 { 1.0 / x + 1.0 } else { 1.0 / x - 1.0 };
    }
    let z = if ix < 0x41b0_0000 {
        // |x| < 22.
        if ix == 0 {
            return x;
        }
        if ix < 0x2400_0000 {
            // |x| < 2^-55: tanh(x) = x to within rounding.
            return x * (1.0 + x);
        }
        if ix >= 0x3f80_0000 {
            let t = expm1(x.abs() + x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        // |x| >= 22: fdlibm's `one - tiny`, which rounds to 1.
        1.0
    };
    if jx >> 31 == 0 {
        z
    } else {
        -z
    }
}

/// `e^x - 1` (fdlibm `expm1f`) over the arguments [`tanh`] passes it,
/// `x` in `(-2, -2^-54]` or `[2, 44)`. That domain never reaches the
/// overflow, `-1` saturation or `k == 1` branches, so they are left out.
#[inline]
fn expm1(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    if hx < 0x3300_0000 {
        // |x| < 2^-25.
        return x;
    }
    // Argument reduction x = k·ln2 + (hi - lo) + c. The k = 0 and k = ±1
    // branches of fdlibm give the same hi and lo as the general formula
    // with t = k, so only the choice of k differs.
    let k = if hx <= 0x3eb1_7218 {
        0
    } else if hx < 0x3f85_1592 {
        if x < 0.0 {
            -1
        } else {
            1
        }
    } else {
        (INV_LN2 * x + if x < 0.0 { -0.5 } else { 0.5 }) as i32
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
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = (x * (e - c) - c) - hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));
    if k <= -2 || k > 56 {
        scale(1.0 - (e - x)) - 1.0
    } else if k < 23 {
        scale(f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)) - (e - x))
    } else {
        scale(x - (e + f32::from_bits(((0x7f - k) << 23) as u32)) + 1.0)
    }
}

/// Natural logarithm (glibc `logf`).
#[inline]
pub fn ln(x: f32) -> f32 {
    dispatch::<LN>(x)
}

#[inline(always)]
fn ln_ref(x: f32) -> f32 {
    let mut ix = x.to_bits();
    if ix == 0x3f80_0000 {
        return 0.0;
    }
    if ix.wrapping_sub(0x0080_0000) >= 0x7f80_0000 - 0x0080_0000 {
        // x < 2^-126, or inf, or NaN.
        if ix << 1 == 0 {
            return f32::NEG_INFINITY;
        }
        if ix == 0x7f80_0000 {
            return x;
        }
        if ix >> 31 != 0 || ix << 1 >= 0xff00_0000 {
            // A NaN keeps its payload (quieted); a negative x gives the
            // NaN x86 produces for an invalid operation, on any host.
            return if x.is_nan() { x + x } else { f32::from_bits(0xffc0_0000) };
        }
        // Subnormal: normalize.
        ix = (x * 8_388_608.0).to_bits().wrapping_sub(23 << 23);
    }
    // x = 2^k·z with z in [0x3f330000, 2·0x3f330000), split into 16
    // subintervals; c is near the centre of z's.
    let tmp = ix.wrapping_sub(0x3f33_0000);
    let (invc, logc) = LN_TAB[((tmp >> 19) % 16) as usize];
    let k = (tmp as i32) >> 23;
    let z = f32::from_bits(ix.wrapping_sub(tmp & 0xff80_0000)) as f64;
    // ln(x) = ln1p(z/c - 1) + ln(c) + k·ln2.
    let r = z.mul_add(f64::from_bits(invc), -1.0);
    let y0 = (k as f64).mul_add(LN2, f64::from_bits(logc));
    let r2 = r * r;
    let y = LN_A[1].mul_add(r, LN_A[2]);
    let y = LN_A[0].mul_add(r2, y);
    y.mul_add(r2, y0 + r) as f32
}

const EXP: u8 = 0;
const SIGMOID: u8 = 1;
const TANH: u8 = 2;
const LN: u8 = 3;

/// `e^x` in place; bit-identical to [`exp`] on every element.
pub fn exp_inplace(xs: &mut [f32]) {
    map::<EXP>(xs);
}

/// Sigmoid in place; bit-identical to [`sigmoid`] on every element.
pub fn sigmoid_inplace(xs: &mut [f32]) {
    map::<SIGMOID>(xs);
}

/// `tanh` in place; bit-identical to [`tanh`] on every element.
pub fn tanh_inplace(xs: &mut [f32]) {
    map::<TANH>(xs);
}

/// The reference code of function `F`, inlined into its caller's build.
#[inline(always)]
fn scalar<const F: u8>(x: f32) -> f32 {
    match F {
        EXP => exp_ref(x),
        SIGMOID => sigmoid_ref(x),
        TANH => tanh_ref(x),
        _ => ln_ref(x),
    }
}

/// [`scalar`] in its FMA build when the CPU has FMA, else in the
/// portable one.
#[inline(always)]
fn dispatch<const F: u8>(x: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: FMA support was just verified at runtime.
        return unsafe { fused::<F>(x) };
    }
    scalar::<F>(x)
}

/// [`scalar`] compiled with FMA enabled, so its `mul_add`s are single
/// instructions.
///
/// # Safety
/// The CPU must support FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn fused<const F: u8>(x: f32) -> f32 {
    scalar::<F>(x)
}

fn map<const F: u8>(xs: &mut [f32]) {
    match Simd::current() {
        // SAFETY: `Simd::current` names only a path the CPU runs, and
        // AVX-512 includes AVX-512F, DQ and FMA.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx512 => unsafe { avx512::map::<F>(xs) },
        // SAFETY: as above; this path includes AVX2 and FMA.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 => unsafe { avx2::map::<F>(xs) },
        _ => {
            for x in xs {
                *x = dispatch::<F>(*x);
            }
        }
    }
}

/// Stores the lane result where `ordinary` has the lane's bit and the
/// scalar reference's value elsewhere. Both lane widths share it.
///
/// # Safety
/// The CPU must support FMA.
#[cfg(target_arch = "x86_64")]
#[cold]
#[inline(never)]
#[target_feature(enable = "fma")]
unsafe fn fallback<const F: u8>(chunk: &mut [f32], lanes: &[f32], ordinary: u32) {
    for (i, (x, &y)) in chunk.iter_mut().zip(lanes).enumerate() {
        *x = if ordinary & (1 << i) != 0 { y } else { scalar::<F>(*x) };
    }
}

/// The 8-lane AVX2+FMA kernels. Each performs the scalar reference's
/// operations in the same order and precision on every lane; selects
/// stand in for its branches.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn map<const F: u8>(xs: &mut [f32]) {
        let (chunks, tail) = xs.as_chunks_mut::<8>();
        // The tail runs as one more chunk, padded with an ordinary input;
        // only its live lanes are stored back.
        let mut padded = [0.5f32; 8];
        padded[..tail.len()].copy_from_slice(tail);
        let last = if tail.is_empty() { None } else { Some(&mut padded) };
        for chunk in chunks.iter_mut().chain(last) {
            let x = _mm256_loadu_ps(chunk.as_ptr());
            let abs = _mm256_and_si256(_mm256_castps_si256(x), _mm256_set1_epi32(0x7fff_ffff));
            let (y, ordinary) = match F {
                EXP => (exp8(x), _mm256_cmpgt_epi32(_mm256_set1_epi32(0x42b0_0000), abs)),
                SIGMOID => (sigmoid8(x), _mm256_cmpgt_epi32(_mm256_set1_epi32(0x42b0_0000), abs)),
                _ => (
                    tanh8(x),
                    _mm256_and_si256(
                        _mm256_cmpgt_epi32(abs, _mm256_set1_epi32(0x23ff_ffff)),
                        _mm256_cmpgt_epi32(_mm256_set1_epi32(0x41b0_0000), abs),
                    ),
                ),
            };
            let ordinary = _mm256_movemask_ps(_mm256_castsi256_ps(ordinary));
            if ordinary == 0xff {
                _mm256_storeu_ps(chunk.as_mut_ptr(), y);
            } else {
                let mut lanes = [0.0f32; 8];
                _mm256_storeu_ps(lanes.as_mut_ptr(), y);
                fallback::<F>(chunk, &lanes, ordinary as u32);
            }
        }
        tail.copy_from_slice(&padded[..tail.len()]);
    }

    /// [`exp_core`] on 8 lanes, as two halves of 4 doubles.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp8(x: __m256) -> __m256 {
        let lo = exp4(_mm256_cvtps_pd(_mm256_castps256_ps128(x)));
        let hi = exp4(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x)));
        _mm256_set_m128(hi, lo)
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp4(xd: __m256d) -> __m128 {
        let inv_ln2_n = _mm256_set1_pd(EXP_INV_LN2_N);
        let shift = _mm256_set1_pd(EXP_SHIFT);
        let kd = _mm256_fmadd_pd(inv_ln2_n, xd, shift);
        let ki = _mm256_castpd_si256(kd);
        let kd = _mm256_sub_pd(kd, shift);
        let r = _mm256_fmsub_pd(inv_ln2_n, xd, kd);
        let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
        let t = _mm256_i64gather_epi64::<8>(EXP_TAB.as_ptr().cast(), idx);
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        let z = _mm256_fmadd_pd(_mm256_set1_pd(EXP_C[0]), r, _mm256_set1_pd(EXP_C[1]));
        let r2 = _mm256_mul_pd(r, r);
        let y = _mm256_fmadd_pd(_mm256_set1_pd(EXP_C[2]), r, _mm256_set1_pd(1.0));
        let y = _mm256_fmadd_pd(z, r2, y);
        _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
    }

    /// [`sigmoid`] on 8 lanes.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sigmoid8(x: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let pos = _mm256_cmp_ps::<_CMP_GE_OQ>(x, _mm256_setzero_ps());
        let e = exp8(_mm256_blendv_ps(x, _mm256_xor_ps(x, _mm256_set1_ps(-0.0)), pos));
        _mm256_div_ps(_mm256_blendv_ps(e, one, pos), _mm256_add_ps(one, e))
    }

    /// [`tanh`] on 8 lanes for `2^-55 <= |x| < 22`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tanh8(x: __m256) -> __m256 {
        let sign = _mm256_set1_ps(-0.0);
        let one = _mm256_set1_ps(1.0);
        let two = _mm256_set1_ps(2.0);
        let ax = _mm256_andnot_ps(sign, x);
        let big = _mm256_cmp_ps::<_CMP_GE_OQ>(ax, one);
        let arg =
            _mm256_blendv_ps(_mm256_mul_ps(_mm256_set1_ps(-2.0), ax), _mm256_add_ps(ax, ax), big);
        let t = expm1_8(arg);
        // |x| >= 1: 1 - 2/(t+2); else -t/(t+2).
        let q = _mm256_div_ps(
            _mm256_blendv_ps(_mm256_xor_ps(t, sign), two, big),
            _mm256_add_ps(t, two),
        );
        let z = _mm256_blendv_ps(q, _mm256_sub_ps(one, q), big);
        _mm256_xor_ps(z, _mm256_and_ps(x, sign))
    }

    /// [`expm1`] on 8 lanes, over the same domain.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn expm1_8(x: __m256) -> __m256 {
        let sign = _mm256_set1_ps(-0.0);
        let one = _mm256_set1_ps(1.0);
        let half = _mm256_set1_ps(0.5);
        let xi = _mm256_castps_si256(x);
        let hx = _mm256_and_si256(xi, _mm256_set1_epi32(0x7fff_ffff));
        let neg = _mm256_srai_epi32::<31>(xi);

        // k: 0 up to ln2/2, ±1 below 1.5·ln2, else trunc(x/ln2 ± 1/2).
        let rounded = _mm256_add_ps(
            _mm256_mul_ps(_mm256_set1_ps(INV_LN2), x),
            _mm256_or_ps(half, _mm256_and_ps(x, sign)),
        );
        let k = _mm256_blendv_epi8(
            _mm256_cvttps_epi32(rounded),
            _mm256_or_si256(neg, _mm256_set1_epi32(1)),
            _mm256_cmpgt_epi32(_mm256_set1_epi32(0x3f85_1592), hx),
        );
        let k = _mm256_andnot_si256(_mm256_cmpgt_epi32(_mm256_set1_epi32(0x3eb1_7219), hx), k);

        let t = _mm256_cvtepi32_ps(k);
        let hi = _mm256_sub_ps(x, _mm256_mul_ps(t, _mm256_set1_ps(LN2_HI)));
        let lo = _mm256_mul_ps(t, _mm256_set1_ps(LN2_LO));
        let xr = _mm256_sub_ps(hi, lo);
        let c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);

        let hfx = _mm256_mul_ps(half, xr);
        let hxs = _mm256_mul_ps(xr, hfx);
        let mut p = _mm256_mul_ps(hxs, _mm256_set1_ps(Q5));
        for q in [Q4, Q3, Q2, Q1] {
            p = _mm256_mul_ps(hxs, _mm256_add_ps(_mm256_set1_ps(q), p));
        }
        let r1 = _mm256_add_ps(one, p);
        let t = _mm256_sub_ps(_mm256_set1_ps(3.0), _mm256_mul_ps(r1, hfx));
        let e = _mm256_mul_ps(
            hxs,
            _mm256_div_ps(
                _mm256_sub_ps(r1, t),
                _mm256_sub_ps(_mm256_set1_ps(6.0), _mm256_mul_ps(xr, t)),
            ),
        );
        let k0 = _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(xr, e), hxs));
        let e = _mm256_sub_ps(_mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c), hxs);
        let km1 = _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(xr, e)), half);

        let e_x = _mm256_sub_ps(e, xr);
        let far = _mm256_sub_ps(scale(_mm256_sub_ps(one, e_x), k), one);
        let t_mid = _mm256_sub_epi32(
            _mm256_set1_epi32(0x3f80_0000),
            _mm256_srlv_epi32(_mm256_set1_epi32(0x0100_0000), k),
        );
        let mid = scale(_mm256_sub_ps(_mm256_castsi256_ps(t_mid), e_x), k);
        let t_high = _mm256_slli_epi32::<23>(_mm256_sub_epi32(_mm256_set1_epi32(0x7f), k));
        let high = scale(
            _mm256_add_ps(_mm256_sub_ps(xr, _mm256_add_ps(e, _mm256_castsi256_ps(t_high))), one),
            k,
        );

        let is_far = _mm256_or_si256(
            _mm256_cmpgt_epi32(k, _mm256_set1_epi32(56)),
            _mm256_cmpgt_epi32(_mm256_set1_epi32(-1), k),
        );
        let mut y = _mm256_blendv_ps(
            high,
            mid,
            _mm256_castsi256_ps(_mm256_cmpgt_epi32(_mm256_set1_epi32(23), k)),
        );
        y = _mm256_blendv_ps(y, far, _mm256_castsi256_ps(is_far));
        y = _mm256_blendv_ps(y, km1, lanes_eq(k, -1));
        y = _mm256_blendv_ps(y, k0, lanes_eq(k, 0));
        let tiny = _mm256_cmpgt_epi32(_mm256_set1_epi32(0x3300_0000), hx);
        _mm256_blendv_ps(y, x, _mm256_castsi256_ps(tiny))
    }

    /// Adds `k` to each lane's binary exponent by integer addition on
    /// its bits, as fdlibm does.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn scale(y: __m256, k: __m256i) -> __m256 {
        _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y), _mm256_slli_epi32::<23>(k)))
    }

    /// Lane mask of `k == v`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn lanes_eq(k: __m256i, v: i32) -> __m256 {
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(v)))
    }
}

/// The 16-lane AVX-512 kernels: the 8-lane ones operation for operation,
/// with mask registers for the compares and selects.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::*;
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx512f,avx512dq,fma")]
    pub(super) unsafe fn map<const F: u8>(xs: &mut [f32]) {
        let (chunks, tail) = xs.as_chunks_mut::<16>();
        // The tail runs as one more chunk, padded with an ordinary input;
        // only its live lanes are stored back.
        let mut padded = [0.5f32; 16];
        padded[..tail.len()].copy_from_slice(tail);
        let last = if tail.is_empty() { None } else { Some(&mut padded) };
        for chunk in chunks.iter_mut().chain(last) {
            let x = _mm512_loadu_ps(chunk.as_ptr());
            let abs = _mm512_and_si512(_mm512_castps_si512(x), _mm512_set1_epi32(0x7fff_ffff));
            let (y, ordinary) = match F {
                EXP => (exp16(x), below(abs, 0x42b0_0000)),
                SIGMOID => (sigmoid16(x), below(abs, 0x42b0_0000)),
                _ => (tanh16(x), !below(abs, 0x2400_0000) & below(abs, 0x41b0_0000)),
            };
            if ordinary == 0xffff {
                _mm512_storeu_ps(chunk.as_mut_ptr(), y);
            } else {
                let mut lanes = [0.0f32; 16];
                _mm512_storeu_ps(lanes.as_mut_ptr(), y);
                fallback::<F>(chunk, &lanes, u32::from(ordinary));
            }
        }
        tail.copy_from_slice(&padded[..tail.len()]);
    }

    /// [`exp_core`] on 16 lanes, as two halves of 8 doubles.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,fma")]
    unsafe fn exp16(x: __m512) -> __m512 {
        let lo = exp8d(_mm512_cvtps_pd(_mm512_castps512_ps256(x)));
        let hi = exp8d(_mm512_cvtps_pd(_mm512_extractf32x8_ps::<1>(x)));
        _mm512_insertf32x8::<1>(_mm512_castps256_ps512(lo), hi)
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,fma")]
    unsafe fn exp8d(xd: __m512d) -> __m256 {
        let inv_ln2_n = _mm512_set1_pd(EXP_INV_LN2_N);
        let shift = _mm512_set1_pd(EXP_SHIFT);
        let kd = _mm512_fmadd_pd(inv_ln2_n, xd, shift);
        let ki = _mm512_castpd_si512(kd);
        let kd = _mm512_sub_pd(kd, shift);
        let r = _mm512_fmsub_pd(inv_ln2_n, xd, kd);
        // EXP_TAB[ki % 32]: each permute picks from 16 entries by the low
        // four index bits, and bit 4 picks the permute.
        let tab: *const __m512i = EXP_TAB.as_ptr().cast();
        let low = _mm512_permutex2var_epi64(
            _mm512_loadu_si512(tab.cast()),
            ki,
            _mm512_loadu_si512(tab.add(1).cast()),
        );
        let high = _mm512_permutex2var_epi64(
            _mm512_loadu_si512(tab.add(2).cast()),
            ki,
            _mm512_loadu_si512(tab.add(3).cast()),
        );
        let upper = _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16));
        let t = _mm512_mask_blend_epi64(upper, low, high);
        let s = _mm512_castsi512_pd(_mm512_add_epi64(t, _mm512_slli_epi64::<47>(ki)));
        let z = _mm512_fmadd_pd(_mm512_set1_pd(EXP_C[0]), r, _mm512_set1_pd(EXP_C[1]));
        let r2 = _mm512_mul_pd(r, r);
        let y = _mm512_fmadd_pd(_mm512_set1_pd(EXP_C[2]), r, _mm512_set1_pd(1.0));
        let y = _mm512_fmadd_pd(z, r2, y);
        _mm512_cvtpd_ps(_mm512_mul_pd(y, s))
    }

    /// [`sigmoid`] on 16 lanes.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,fma")]
    unsafe fn sigmoid16(x: __m512) -> __m512 {
        let one = _mm512_set1_ps(1.0);
        let pos = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(x, _mm512_setzero_ps());
        let e = exp16(_mm512_mask_blend_ps(pos, x, _mm512_xor_ps(x, _mm512_set1_ps(-0.0))));
        _mm512_div_ps(_mm512_mask_blend_ps(pos, e, one), _mm512_add_ps(one, e))
    }

    /// [`tanh`] on 16 lanes for `2^-55 <= |x| < 22`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,fma")]
    unsafe fn tanh16(x: __m512) -> __m512 {
        let sign = _mm512_set1_ps(-0.0);
        let one = _mm512_set1_ps(1.0);
        let two = _mm512_set1_ps(2.0);
        let ax = _mm512_andnot_ps(sign, x);
        let big = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(ax, one);
        let arg = _mm512_mask_blend_ps(
            big,
            _mm512_mul_ps(_mm512_set1_ps(-2.0), ax),
            _mm512_add_ps(ax, ax),
        );
        let t = expm1_16(arg);
        // |x| >= 1: 1 - 2/(t+2); else -t/(t+2).
        let q = _mm512_div_ps(
            _mm512_mask_blend_ps(big, _mm512_xor_ps(t, sign), two),
            _mm512_add_ps(t, two),
        );
        let z = _mm512_mask_blend_ps(big, q, _mm512_sub_ps(one, q));
        _mm512_xor_ps(z, _mm512_and_ps(x, sign))
    }

    /// [`expm1`] on 16 lanes, over the same domain.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,fma")]
    unsafe fn expm1_16(x: __m512) -> __m512 {
        let sign = _mm512_set1_ps(-0.0);
        let one = _mm512_set1_ps(1.0);
        let half = _mm512_set1_ps(0.5);
        let xi = _mm512_castps_si512(x);
        let hx = _mm512_and_si512(xi, _mm512_set1_epi32(0x7fff_ffff));
        let neg = _mm512_srai_epi32::<31>(xi);

        // k: 0 up to ln2/2, ±1 below 1.5·ln2, else trunc(x/ln2 ± 1/2).
        let rounded = _mm512_add_ps(
            _mm512_mul_ps(_mm512_set1_ps(INV_LN2), x),
            _mm512_or_ps(half, _mm512_and_ps(x, sign)),
        );
        let k = _mm512_mask_blend_epi32(
            below(hx, 0x3f85_1592),
            _mm512_cvttps_epi32(rounded),
            _mm512_or_si512(neg, _mm512_set1_epi32(1)),
        );
        let k = _mm512_maskz_mov_epi32(!below(hx, 0x3eb1_7219), k);

        let t = _mm512_cvtepi32_ps(k);
        let hi = _mm512_sub_ps(x, _mm512_mul_ps(t, _mm512_set1_ps(LN2_HI)));
        let lo = _mm512_mul_ps(t, _mm512_set1_ps(LN2_LO));
        let xr = _mm512_sub_ps(hi, lo);
        let c = _mm512_sub_ps(_mm512_sub_ps(hi, xr), lo);

        let hfx = _mm512_mul_ps(half, xr);
        let hxs = _mm512_mul_ps(xr, hfx);
        let mut p = _mm512_mul_ps(hxs, _mm512_set1_ps(Q5));
        for q in [Q4, Q3, Q2, Q1] {
            p = _mm512_mul_ps(hxs, _mm512_add_ps(_mm512_set1_ps(q), p));
        }
        let r1 = _mm512_add_ps(one, p);
        let t = _mm512_sub_ps(_mm512_set1_ps(3.0), _mm512_mul_ps(r1, hfx));
        let e = _mm512_mul_ps(
            hxs,
            _mm512_div_ps(
                _mm512_sub_ps(r1, t),
                _mm512_sub_ps(_mm512_set1_ps(6.0), _mm512_mul_ps(xr, t)),
            ),
        );
        let k0 = _mm512_sub_ps(xr, _mm512_sub_ps(_mm512_mul_ps(xr, e), hxs));
        let e = _mm512_sub_ps(_mm512_sub_ps(_mm512_mul_ps(xr, _mm512_sub_ps(e, c)), c), hxs);
        let km1 = _mm512_sub_ps(_mm512_mul_ps(half, _mm512_sub_ps(xr, e)), half);

        let e_x = _mm512_sub_ps(e, xr);
        let far = _mm512_sub_ps(scale(_mm512_sub_ps(one, e_x), k), one);
        let t_mid = _mm512_sub_epi32(
            _mm512_set1_epi32(0x3f80_0000),
            _mm512_srlv_epi32(_mm512_set1_epi32(0x0100_0000), k),
        );
        let mid = scale(_mm512_sub_ps(_mm512_castsi512_ps(t_mid), e_x), k);
        let t_high = _mm512_slli_epi32::<23>(_mm512_sub_epi32(_mm512_set1_epi32(0x7f), k));
        let high = scale(
            _mm512_add_ps(_mm512_sub_ps(xr, _mm512_add_ps(e, _mm512_castsi512_ps(t_high))), one),
            k,
        );

        let is_far = !below(k, 57) | below(k, -1);
        let mut y = _mm512_mask_blend_ps(below(k, 23), high, mid);
        y = _mm512_mask_blend_ps(is_far, y, far);
        y = _mm512_mask_blend_ps(lanes_eq(k, -1), y, km1);
        y = _mm512_mask_blend_ps(lanes_eq(k, 0), y, k0);
        let tiny = below(hx, 0x3300_0000);
        _mm512_mask_blend_ps(tiny, y, x)
    }

    /// Adds `k` to each lane's binary exponent by integer addition on
    /// its bits, as fdlibm does.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,fma")]
    unsafe fn scale(y: __m512, k: __m512i) -> __m512 {
        _mm512_castsi512_ps(_mm512_add_epi32(_mm512_castps_si512(y), _mm512_slli_epi32::<23>(k)))
    }

    /// Lane mask of `v < limit`, signed.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,fma")]
    unsafe fn below(v: __m512i, limit: i32) -> __mmask16 {
        _mm512_cmplt_epi32_mask(v, _mm512_set1_epi32(limit))
    }

    /// Lane mask of `k == v`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,fma")]
    unsafe fn lanes_eq(k: __m512i, v: i32) -> __mmask16 {
        _mm512_cmpeq_epi32_mask(k, _mm512_set1_epi32(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dispatched scalar functions (the FMA build on an FMA host)
    /// equal the portable build of the same code, here inlined into a
    /// function compiled without FMA, on a spread of bit patterns that
    /// covers every sign and exponent.
    #[test]
    fn dispatched_scalars_equal_the_portable_build() {
        for bits in (0..=u32::MAX).step_by(4099) {
            let x = f32::from_bits(bits);
            assert_eq!(exp(x).to_bits(), scalar::<EXP>(x).to_bits(), "exp({x:e})");
            assert_eq!(sigmoid(x).to_bits(), scalar::<SIGMOID>(x).to_bits(), "sigmoid({x:e})");
            assert_eq!(tanh(x).to_bits(), scalar::<TANH>(x).to_bits(), "tanh({x:e})");
            assert_eq!(ln(x).to_bits(), scalar::<LN>(x).to_bits(), "ln({x:e})");
        }
    }
}
