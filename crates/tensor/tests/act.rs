//! `nfv_tensor::act`: the scalar references reproduce their pinned sample
//! digests, and every slice kernel, on every lane path the CPU runs,
//! equals its scalar reference bit for bit on slices that mix ordinary
//! values with special values and branch boundaries.

mod act_digest;

use act_digest::{sample_digest, EXP, LN, SIGMOID, TANH};
use nfv_tensor::simd::{with_simd, Simd};
use nfv_tensor::{act, Matrix};
use proptest::prelude::*;

#[test]
fn sample_digests_match_pins() {
    for (name, f, want) in [
        ("exp", act::exp as fn(f32) -> f32, EXP.1),
        ("sigmoid", act::sigmoid, SIGMOID.1),
        ("tanh", act::tanh, TANH.1),
        ("ln", act::ln, LN.1),
    ] {
        let got = sample_digest(f);
        assert_eq!(got, want, "{name}: sample digest {got:#018x}, want {want:#018x}");
    }
}

/// Inputs at the edges of the lane ranges and of the reference
/// algorithms' branches. `tanh(x)` evaluates `expm1(±2|x|)`, so its
/// `expm1` edges appear here halved.
const EDGES: [f32; 29] = [
    0.0,
    f32::from_bits(0x0000_0001), // smallest subnormal
    f32::from_bits(0x007f_ffff), // largest subnormal
    f32::MIN_POSITIVE,
    f32::INFINITY,
    f32::from_bits(0x7fc0_1234), // quiet NaN with a payload
    f32::from_bits(0x7f80_0001), // signalling NaN
    f32::from_bits(0x7fff_ffff),
    88.0,
    f32::from_bits(0x42b1_7217), // expf overflow threshold
    f32::from_bits(0x42cf_f1b4), // negated: expf underflow threshold
    f32::from_bits(0x42ce_8ecf), // negated: expf "may underflow" threshold
    22.0,
    f32::from_bits(0x2400_0000), // 2^-55
    f32::from_bits(0x3300_0000), // 2^-25
    f32::from_bits(0x3280_0000), // 2^-26: expm1 argument 2^-25
    1.0,
    f32::from_bits(0x3eb1_7218),    // 0.5·ln2
    f32::from_bits(0x3e31_7218),    // expm1 argument 0.5·ln2
    f32::from_bits(0x3f85_1592),    // 1.5·ln2
    f32::from_bits(0x3f05_1592),    // expm1 argument 1.5·ln2
    11.25 * std::f32::consts::LN_2, // expm1 argument 22.5·ln2: k = 22 | 23
    28.25 * std::f32::consts::LN_2, // expm1 argument 56.5·ln2: k = 56 | 57
    0.5 * std::f32::consts::LN_2,
    0.75 * std::f32::consts::LN_2,
    1.25 * std::f32::consts::LN_2,
    f32::from_bits(0x4195_b844), // 27·ln2
    f32::MAX,
    0.5,
];

/// Ordinary values, small magnitudes, edges and their neighbours a few
/// ulps away, with either sign.
fn input() -> impl Strategy<Value = f32> {
    (0u32..8, -30.0f32..30.0, 0usize..EDGES.len(), -3i32..=3, 0u32..2).prop_map(
        |(kind, v, i, ulps, neg)| {
            let x = match kind {
                0..=2 => v,
                3 => v * 1e-7,
                4 => EDGES[i],
                _ => f32::from_bits(EDGES[i].to_bits().wrapping_add_signed(ulps)),
            };
            if neg == 1 {
                -x
            } else {
                x
            }
        },
    )
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn kernel_matches_reference(kernel: fn(&mut [f32]), f: fn(f32) -> f32, xs: &[f32]) {
    let want: Vec<f32> = xs.iter().map(|&x| f(x)).collect();
    for simd in Simd::supported() {
        let mut ys = xs.to_vec();
        with_simd(simd, || kernel(&mut ys));
        for (i, (&x, (got, want))) in xs.iter().zip(bits(&ys).iter().zip(bits(&want))).enumerate() {
            assert_eq!(
                *got,
                want,
                "{simd:?}, element {i} of {}: input {x:e} ({:#010x})",
                xs.len(),
                x.to_bits()
            );
        }
    }
}

/// Columns whose flag is 0 form the selected ranges, ascending and
/// disjoint.
fn runs(flags: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut start = None;
    for (c, &f) in flags.iter().chain([1].iter()).enumerate() {
        match (f == 0, start) {
            (true, None) => start = Some(c),
            (false, Some(s)) => {
                out.push(s..c);
                start = None;
            }
            _ => {}
        }
    }
    out
}

fn apply_cols_matches_elementwise(m: &Matrix, cols: &[std::ops::Range<usize>]) {
    for (kernel, f) in [
        (act::sigmoid_inplace as fn(&mut [f32]), act::sigmoid as fn(f32) -> f32),
        (act::tanh_inplace, act::tanh),
    ] {
        let mut want = m.clone();
        for r in 0..m.rows() {
            for c in cols.iter().flat_map(|c| c.clone()) {
                want.set(r, c, f(m.get(r, c)));
            }
        }
        for simd in Simd::supported() {
            let mut got = m.clone();
            with_simd(simd, || got.apply_cols(kernel, cols));
            assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{simd:?}, columns {cols:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn exp_kernel_matches_reference(xs in prop::collection::vec(input(), 0..=70)) {
        kernel_matches_reference(act::exp_inplace, act::exp, &xs);
    }

    #[test]
    fn sigmoid_kernel_matches_reference(xs in prop::collection::vec(input(), 0..=70)) {
        kernel_matches_reference(act::sigmoid_inplace, act::sigmoid, &xs);
    }

    #[test]
    fn tanh_kernel_matches_reference(xs in prop::collection::vec(input(), 0..=70)) {
        kernel_matches_reference(act::tanh_inplace, act::tanh, &xs);
    }

    #[test]
    fn apply_cols_matches_reference(
        v in (0usize..=40, 1usize..=48).prop_flat_map(|(r, c)| {
            (prop::collection::vec(input(), r * c), prop::collection::vec(0u8..3, c))
                .prop_map(move |(data, flags)| (Matrix::from_vec(r, c, data), flags))
        }),
    ) {
        let (m, flags) = v;
        apply_cols_matches_elementwise(&m, &runs(&flags));
    }
}

#[test]
fn apply_cols_on_rows_wider_than_the_stage() {
    let m = Matrix::from_fn(3, 1200, |r, c| ((r * 1200 + c) % 97) as f32 * 0.37 - 18.0);
    apply_cols_matches_elementwise(&m, &[0..500, 600..1199]);
    apply_cols_matches_elementwise(&m, &[3..4, 10..1200]);
}
