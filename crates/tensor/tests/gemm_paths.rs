//! Every GEMM kernel the CPU runs — scalar, 8-lane AVX, 16-lane AVX-512 —
//! equals the naive triple loop bit for bit, for all three product forms
//! on every shape with `m` 1–9, `k` 0–17 and `n` 1–40. That covers every
//! `n % 16` and `n % 8` column tail, the masked loads and stores of the
//! 16-lane kernel on the last columns and rows of `c`, and the rows
//! below a whole multiple of the kernel's row block. The operands are
//! not exactly representable in few bits, so a fused multiply-add or a
//! reordered sum changes the result.

use nfv_tensor::gemm::with_threads;
use nfv_tensor::simd::{with_simd, Simd};
use nfv_tensor::Matrix;

/// Deterministic operands in `[-2, 2)` with full mantissas.
fn operand(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 40) as f32 / (1u64 << 22) as f32 - 2.0
    })
}

/// `out += a · b`, one rounded multiply and one rounded add per term, in
/// ascending `k`.
fn naive_acc(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (a, b) = (a.as_slice(), b.as_slice());
    let out = out.as_mut_slice();
    for i in 0..m {
        for j in 0..n {
            let mut acc = out[i * n + j];
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
}

fn assert_bitwise(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g:e} != {w:e}");
    }
}

#[test]
fn every_kernel_matches_the_naive_loop_on_every_tail() {
    for simd in Simd::supported() {
        for m in 1..=9 {
            for k in 0..=17 {
                for n in 1..=40 {
                    let seed = (m * 10_000 + k * 100 + n) as u64;
                    let a = operand(m, k, seed);
                    let b = operand(k, n, seed + 1);
                    let init = operand(m, n, seed + 2);
                    let mut want = init.clone();
                    naive_acc(&a, &b, &mut want);
                    let what = format!("{simd:?} m={m} k={k} n={n}");
                    with_simd(simd, || {
                        let mut got = init.clone();
                        a.matmul_acc(&b, &mut got);
                        assert_bitwise(&got, &want, &format!("matmul_acc {what}"));

                        // aᵀ is k x m: Aᵀ·B with the shared dimension k.
                        let mut got = init.clone();
                        a.transpose().matmul_tn_acc(&b, &mut got);
                        assert_bitwise(&got, &want, &format!("matmul_tn_acc {what}"));

                        let mut want_nt = Matrix::zeros(m, n);
                        naive_acc(&a, &b, &mut want_nt);
                        let got = a.matmul_nt(&b.transpose());
                        assert_bitwise(&got, &want_nt, &format!("matmul_nt {what}"));
                    });
                }
            }
        }
    }
}

/// The row-panel fan-out hands the pinned path to its workers: a product
/// large enough to split runs the same kernel, and the same bits, on
/// every row block.
#[test]
fn every_kernel_keeps_its_bits_across_row_panel_workers() {
    let (m, k, n) = (67, 45, 37);
    assert!(m * k * n >= nfv_tensor::gemm::PAR_MIN_MKN, "the product must take the fan-out");
    let a = operand(m, k, 1);
    let b = operand(k, n, 2);
    let mut want = Matrix::zeros(m, n);
    naive_acc(&a, &b, &mut want);
    for simd in Simd::supported() {
        for workers in [1, 3] {
            let got = with_simd(simd, || with_threads(workers, || a.matmul(&b)));
            assert_bitwise(&got, &want, &format!("{simd:?} at {workers} workers"));
        }
    }
}
