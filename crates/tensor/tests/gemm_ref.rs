//! Reference suite for the packed GEMM backend.
//!
//! Three layers of guarantees:
//!
//! 1. **Semantics** (proptest): every `matmul_*` entry point equals a
//!    naive triple loop — same ascending-reduction accumulation order,
//!    so equality is asserted *bitwise* — on random shapes including
//!    empty (0-row / 0-col) matrices and exact-zero elements.
//! 2. **Bit-exactness vs. the pre-PR kernels**: faithful copies of the
//!    old scalar loops (k-unrolled-by-4 / i-unrolled-by-2, with the
//!    zero-skip fast paths) must agree bit-for-bit with the new backend
//!    on dense finite fixtures — the contract that keeps the captured
//!    trainer trajectories and crash-resume checkpoints valid.
//! 3. **Non-finite propagation**: the old zero-skip swallowed a NaN in
//!    `rhs` whenever its paired lhs element was exactly `0.0`; the new
//!    backend must propagate it. The regression test demonstrates the
//!    old kernel failing exactly this way.

use nfv_tensor::Matrix;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Naive ground truth: plain triple loops, ascending reduction index,
// one multiply + one add per contribution, no skips.
// ---------------------------------------------------------------------

fn naive_nn_acc(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = out.get(i, j);
            for k in 0..a.cols() {
                acc += a.get(i, k) * b.get(k, j);
            }
            out.set(i, j, acc);
        }
    }
}

fn naive_tn_acc(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    for k in 0..a.cols() {
        for j in 0..b.cols() {
            let mut acc = out.get(k, j);
            for i in 0..a.rows() {
                acc += a.get(i, k) * b.get(i, j);
            }
            out.set(k, j, acc);
        }
    }
}

fn naive_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let mut acc = 0.0f32;
            for k in 0..a.cols() {
                acc += a.get(i, k) * b.get(j, k);
            }
            out.set(i, j, acc);
        }
    }
    out
}

// ---------------------------------------------------------------------
// Faithful copies of the pre-PR kernels (including the zero-skip bug).
// ---------------------------------------------------------------------

/// The old `matmul_acc`: i-k-j, k unrolled by 4, zero-skip on lhs.
fn pre_pr_matmul_acc(lhs: &Matrix, rhs: &Matrix, out: &mut Matrix) {
    let n = rhs.cols();
    for i in 0..lhs.rows() {
        let lhs_row = lhs.row(i);
        let out_row = out.row_mut(i);
        let mut k = 0;
        while k + 4 <= lhs.cols() {
            let (a0, a1, a2, a3) = (lhs_row[k], lhs_row[k + 1], lhs_row[k + 2], lhs_row[k + 3]);
            if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                k += 4;
                continue;
            }
            let base = rhs.as_slice();
            let r0 = &base[k * n..(k + 1) * n];
            let r1 = &base[(k + 1) * n..(k + 2) * n];
            let r2 = &base[(k + 2) * n..(k + 3) * n];
            let r3 = &base[(k + 3) * n..(k + 4) * n];
            for j in 0..n {
                let mut acc = out_row[j];
                acc += a0 * r0[j];
                acc += a1 * r1[j];
                acc += a2 * r2[j];
                acc += a3 * r3[j];
                out_row[j] = acc;
            }
            k += 4;
        }
        while k < lhs.cols() {
            let a = lhs_row[k];
            if a != 0.0 {
                let rhs_row = rhs.row(k);
                for (o, &b) in out_row.iter_mut().zip(rhs_row.iter()) {
                    *o += a * b;
                }
            }
            k += 1;
        }
    }
}

/// The old `matmul_tn_acc`: i unrolled by 2, zero-skip on lhs pairs.
fn pre_pr_matmul_tn_acc(lhs: &Matrix, rhs: &Matrix, out: &mut Matrix) {
    let n = rhs.cols();
    let mut i = 0;
    while i + 2 <= lhs.rows() {
        let l0 = lhs.row(i);
        let l1 = lhs.row(i + 1);
        let r0 = rhs.row(i);
        let r1 = rhs.row(i + 1);
        for k in 0..lhs.cols() {
            let (a0, a1) = (l0[k], l1[k]);
            if a0 == 0.0 && a1 == 0.0 {
                continue;
            }
            let out_row = out.row_mut(k);
            for j in 0..n {
                let mut acc = out_row[j];
                acc += a0 * r0[j];
                acc += a1 * r1[j];
                out_row[j] = acc;
            }
        }
        i += 2;
    }
    if i < lhs.rows() {
        let lhs_row = lhs.row(i);
        let rhs_row = rhs.row(i);
        for (k, &a) in lhs_row.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let out_row = out.row_mut(k);
            for (o, &b) in out_row.iter_mut().zip(rhs_row.iter()) {
                *o += a * b;
            }
        }
    }
}

/// The old `matmul_nt_into`: one scalar dot product per output element.
fn pre_pr_matmul_nt(lhs: &Matrix, rhs: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(lhs.rows(), rhs.rows());
    for i in 0..lhs.rows() {
        for j in 0..rhs.rows() {
            let mut acc = 0.0f32;
            for (a, b) in lhs.row(i).iter().zip(rhs.row(j).iter()) {
                acc += a * b;
            }
            out.set(i, j, acc);
        }
    }
    out
}

// ---------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------

fn assert_matrix_exact(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{}: shape mismatch", what);
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice().iter()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{}: element {} differs bitwise: got {}, want {}",
            what,
            i,
            g,
            w
        );
    }
}

/// Dense fixture that never contains an exact zero, so the pre-PR
/// zero-skip can not fire and bit-identity must hold unconditionally.
fn dense_fixture(rows: usize, cols: usize, salt: f32) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| ((r * cols + c) as f32 * salt + 0.173).sin() + 1.5)
}

/// ReLU-like fixture: roughly half the elements are exactly 0.0.
fn sparse_fixture(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let h = r * cols + c + salt;
        if h.is_multiple_of(2) {
            0.0
        } else {
            (h as f32 * 0.37).cos() * 2.0
        }
    })
}

/// Shapes chosen to exercise full panels, the zero-padded column tail,
/// the 4-row micro-kernel and its remainder rows, and every product the
/// default detectors train with: batch 64, LSTM input 17, hidden 32 and
/// vocab 64 (gate forwards, head, BPTT `xᵀ·dz`/`hᵀ·dz` and `dz·Wᵀ`), and
/// the autoencoder's `[64, 32, 8, 32, 64]` layers. Each `(m, k, n)` is
/// an `m x n` output summed over `k` products, in every form.
const FIXTURE_SHAPES: [(usize, usize, usize); 17] = [
    (1, 1, 1),
    (4, 4, 4),
    (5, 7, 9),
    (3, 2, 17),
    (8, 16, 24),
    (2, 25, 11),
    (13, 6, 8),
    (64, 17, 128),
    (64, 32, 128),
    (64, 32, 64),
    (17, 64, 128),
    (32, 64, 128),
    (64, 128, 17),
    (64, 128, 32),
    (64, 64, 32),
    (64, 32, 8),
    (32, 64, 64),
];

// ---------------------------------------------------------------------
// 1. Proptest: all eight entry points vs. the naive triple loop.
// ---------------------------------------------------------------------

/// Dimensions in `[0, 9]` so empty matrices are generated, and elements
/// drawn from a grid with frequent exact zeros.
fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (0usize..=9, 0usize..=9, 0usize..=9)
}

fn grid(v: i32) -> f32 {
    if (-2..=2).contains(&v) && v % 2 == 0 {
        0.0
    } else {
        v as f32 * 0.25
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn nn_variants_match_naive(
        dims in dims(),
        seeds in (-14i32..=14, -14i32..=14),
    ) {
        let (m, k, n) = dims;
        let a = Matrix::from_fn(m, k, |r, c| grid(((r * 5 + c * 3) as i32 + seeds.0) % 15 - 7));
        let b = Matrix::from_fn(k, n, |r, c| grid(((r * 7 + c * 2) as i32 + seeds.1) % 15 - 7));
        let mut want = Matrix::zeros(m, n);
        naive_nn_acc(&a, &b, &mut want);

        assert_matrix_exact(&a.matmul(&b), &want, "matmul");
        let mut out = Matrix::filled(3, 3, 9.0); // dirty, wrong shape on purpose
        a.matmul_into(&b, &mut out);
        assert_matrix_exact(&out, &want, "matmul_into");

        let init = Matrix::from_fn(m, n, |r, c| grid(((r + 2 * c) as i32) % 15 - 7));
        let mut acc = init.clone();
        a.matmul_acc(&b, &mut acc);
        let mut want_acc = init;
        naive_nn_acc(&a, &b, &mut want_acc);
        assert_matrix_exact(&acc, &want_acc, "matmul_acc");
    }

    #[test]
    fn tn_variants_match_naive(
        dims in dims(),
        salt in 0usize..1000,
    ) {
        let (r, m, n) = dims;
        let a = Matrix::from_fn(r, m, |i, j| grid(((i * 3 + j * 5 + salt) % 15) as i32 - 7));
        let b = Matrix::from_fn(r, n, |i, j| grid(((i * 2 + j * 7 + salt) % 15) as i32 - 7));
        let mut want = Matrix::zeros(m, n);
        naive_tn_acc(&a, &b, &mut want);

        assert_matrix_exact(&a.matmul_tn(&b), &want, "matmul_tn");
        let mut out = Matrix::filled(2, 5, -3.0);
        a.matmul_tn_into(&b, &mut out);
        assert_matrix_exact(&out, &want, "matmul_tn_into");

        let init = Matrix::from_fn(m, n, |i, j| grid(((i * 4 + j + salt) % 15) as i32 - 7));
        let mut acc = init.clone();
        a.matmul_tn_acc(&b, &mut acc);
        let mut want_acc = init;
        naive_tn_acc(&a, &b, &mut want_acc);
        assert_matrix_exact(&acc, &want_acc, "matmul_tn_acc");
    }

    #[test]
    fn nt_variants_match_naive(
        dims in dims(),
        salt in 0usize..1000,
    ) {
        let (m, k, j) = dims;
        let a = Matrix::from_fn(m, k, |r, c| grid(((r * 3 + c * 5 + salt) % 15) as i32 - 7));
        let b = Matrix::from_fn(j, k, |r, c| grid(((r * 2 + c * 7 + salt) % 15) as i32 - 7));
        let want = naive_nt(&a, &b);

        assert_matrix_exact(&a.matmul_nt(&b), &want, "matmul_nt");
        let mut out = Matrix::filled(1, 4, 2.5);
        a.matmul_nt_into(&b, &mut out);
        assert_matrix_exact(&out, &want, "matmul_nt_into");
    }
}

// ---------------------------------------------------------------------
// 2. Bit-exactness vs. the pre-PR scalar kernels.
// ---------------------------------------------------------------------

#[test]
fn default_backend_matches_pre_pr_kernels_on_dense_fixtures() {
    for &(m, k, n) in &FIXTURE_SHAPES {
        let a = dense_fixture(m, k, 0.61);
        let b = dense_fixture(k, n, 0.43);
        let bt = b.transpose();

        let mut want = Matrix::zeros(m, n);
        pre_pr_matmul_acc(&a, &b, &mut want);
        assert_matrix_exact(&a.matmul(&b), &want, "nn vs pre-PR");

        let at = a.transpose();
        let mut want_tn = Matrix::zeros(m, n);
        pre_pr_matmul_tn_acc(&at, &b, &mut want_tn);
        assert_matrix_exact(&at.matmul_tn(&b), &want_tn, "tn vs pre-PR");

        let want_nt = pre_pr_matmul_nt(&a, &bt);
        assert_matrix_exact(&a.matmul_nt(&bt), &want_nt, "nt vs pre-PR");

        // Accumulating on top of a dense non-zero out buffer.
        let init = dense_fixture(m, n, 0.29);
        let mut got_acc = init.clone();
        a.matmul_acc(&b, &mut got_acc);
        let mut want_acc = init;
        pre_pr_matmul_acc(&a, &b, &mut want_acc);
        assert_matrix_exact(&got_acc, &want_acc, "nn acc vs pre-PR");
    }
}

#[test]
fn default_backend_matches_pre_pr_kernels_on_relu_sparse_lhs() {
    // With finite operands and a `+0.0`-initialized accumulator, the old
    // zero-skip was observationally pure: skipping `0.0 * b` adds `±0.0`
    // to an accumulator that can never be `-0.0`. The new backend does
    // the multiplies anyway and must land on identical bits.
    for &(m, k, n) in &FIXTURE_SHAPES {
        let a = sparse_fixture(m, k, 1);
        let b = dense_fixture(k, n, 0.53);

        let mut want = Matrix::zeros(m, n);
        pre_pr_matmul_acc(&a, &b, &mut want);
        assert_matrix_exact(&a.matmul(&b), &want, "sparse nn vs pre-PR");

        let at = a.transpose();
        let mut want_tn = Matrix::zeros(m, n);
        pre_pr_matmul_tn_acc(&at, &b, &mut want_tn);
        assert_matrix_exact(&at.matmul_tn(&b), &want_tn, "sparse tn vs pre-PR");
    }
}

// ---------------------------------------------------------------------
// 3. Non-finite propagation (the bug the zero-skip caused).
// ---------------------------------------------------------------------

/// Builds the poisoned pair: the entire aligned 4-wide k-block of lhs
/// containing `bad_k` is zeroed (a freshly-zeroed / ReLU-dead span, the
/// exact shape the old kernel's block-skip keyed on) and row `bad_k` of
/// rhs is NaN, so every product against the NaN is `0.0 * NaN`.
fn poisoned_pair(m: usize, k: usize, n: usize, bad_k: usize) -> (Matrix, Matrix) {
    let mut a = dense_fixture(m, k, 0.71);
    let mut b = dense_fixture(k, n, 0.37);
    let blk = bad_k / 4 * 4;
    for i in 0..m {
        for kk in blk..(blk + 4).min(k) {
            a.set(i, kk, 0.0);
        }
    }
    for j in 0..n {
        b.set(bad_k, j, f32::NAN);
    }
    (a, b)
}

#[test]
fn nan_in_rhs_behind_zero_lhs_propagates_through_all_entry_points() {
    let (m, k, n, bad_k) = (5, 9, 11, 4);
    let (a, b) = poisoned_pair(m, k, n, bad_k);

    // The pre-PR kernels swallowed the NaN: the nn block-skip jumped the
    // all-zero lhs block so row `bad_k` of rhs was never read, and the tn
    // pair-skip did the same over zero shared-row pairs. That is exactly
    // the regression this suite pins down.
    let mut old = Matrix::zeros(m, n);
    pre_pr_matmul_acc(&a, &b, &mut old);
    assert!(
        !old.has_non_finite(),
        "pre-PR nn kernel no longer swallows the NaN; update this regression test"
    );
    let mut old_tn = Matrix::zeros(m, n);
    pre_pr_matmul_tn_acc(&a.transpose(), &b, &mut old_tn);
    assert!(
        !old_tn.has_non_finite(),
        "pre-PR tn kernel no longer swallows the NaN; update this regression test"
    );
    // The scalar-tail path (k beyond the last full unroll block) skipped
    // single zeros too.
    let (a_tail, b_tail) = poisoned_pair(3, 9, 4, 8);
    let mut old_tail = Matrix::zeros(3, 4);
    pre_pr_matmul_acc(&a_tail, &b_tail, &mut old_tail);
    assert!(!old_tail.has_non_finite(), "pre-PR tail skip no longer swallows the NaN");
    assert!(a_tail.matmul(&b_tail).has_non_finite(), "tail-path matmul swallowed 0.0 * NaN");

    // The new backend must propagate it everywhere.
    assert!(a.matmul(&b).has_non_finite(), "matmul swallowed 0.0 * NaN");
    let mut out = Matrix::default();
    a.matmul_into(&b, &mut out);
    assert!(out.has_non_finite(), "matmul_into swallowed 0.0 * NaN");
    let mut acc = Matrix::zeros(m, n);
    a.matmul_acc(&b, &mut acc);
    assert!(acc.has_non_finite(), "matmul_acc swallowed 0.0 * NaN");

    let at = a.transpose();
    assert!(at.matmul_tn(&b).has_non_finite(), "matmul_tn swallowed 0.0 * NaN");
    at.matmul_tn_into(&b, &mut out);
    assert!(out.has_non_finite(), "matmul_tn_into swallowed 0.0 * NaN");
    let mut acc = Matrix::zeros(m, n);
    at.matmul_tn_acc(&b, &mut acc);
    assert!(acc.has_non_finite(), "matmul_tn_acc swallowed 0.0 * NaN");

    let bt = b.transpose();
    assert!(a.matmul_nt(&bt).has_non_finite(), "matmul_nt swallowed 0.0 * NaN");
    a.matmul_nt_into(&bt, &mut out);
    assert!(out.has_non_finite(), "matmul_nt_into swallowed 0.0 * NaN");
}

#[test]
fn infinity_behind_zero_lhs_propagates_as_nan() {
    // `0.0 * inf` is NaN by IEEE 754; the old skip hid that too.
    let (m, k, n, bad_k) = (4, 8, 8, 7);
    let (mut a, mut b) = poisoned_pair(m, k, n, bad_k);
    for j in 0..n {
        b.set(bad_k, j, f32::INFINITY);
    }
    a.set(2, bad_k, 0.0);
    let c = a.matmul(&b);
    assert!(c.has_non_finite(), "matmul swallowed 0.0 * inf");
}

// ---------------------------------------------------------------------
// 4. Row-panel-parallel path: bitwise equal to the serial kernel at
//    every worker count, in BOTH backends (the micro-kernels are
//    row-independent, so a row's bits never depend on which block —
//    or which worker — produced it). `gemm::with_threads` scopes the
//    worker request to this thread, so the sweep cannot race other
//    tests.
// ---------------------------------------------------------------------

fn assert_bitwise(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{}: shape mismatch", what);
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice().iter()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{}: element {} differs bitwise: got {}, want {}",
            what,
            i,
            g,
            w
        );
    }
}

/// Runs all three product forms (plus a dirty-accumulator case) at one
/// worker count and compares bitwise against the serial results.
fn check_parallel_matches_serial(a: &Matrix, b: &Matrix, init: &Matrix, workers: usize) {
    let (serial_nn, serial_tn, serial_nt, serial_acc) = nfv_tensor::gemm::with_threads(1, || {
        let mut acc = init.clone();
        a.matmul_acc(b, &mut acc);
        (a.matmul(b), a.transpose().matmul_tn(b), a.matmul_nt(&b.transpose()), acc)
    });
    nfv_tensor::gemm::with_threads(workers, || {
        let what = format!("nn @ {workers} workers");
        assert_bitwise(&a.matmul(b), &serial_nn, &what);
        let what = format!("tn @ {workers} workers");
        assert_bitwise(&a.transpose().matmul_tn(b), &serial_tn, &what);
        let what = format!("nt @ {workers} workers");
        assert_bitwise(&a.matmul_nt(&b.transpose()), &serial_nt, &what);
        let mut acc = init.clone();
        a.matmul_acc(b, &mut acc);
        let what = format!("nn acc @ {workers} workers");
        assert_bitwise(&acc, &serial_acc, &what);
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes spanning empty matrices, sub-threshold products
    /// (which stay serial) and products wide/tall enough to split into
    /// several MR-row blocks with remainder rows and column tails.
    #[test]
    fn parallel_path_is_bitwise_serial_on_random_shapes(
        dims in (0usize..=70, 0usize..=24, 0usize..=33),
        salt in 0usize..1000,
    ) {
        let (m, k, n) = dims;
        let a = Matrix::from_fn(m, k, |r, c| grid(((r * 3 + c * 5 + salt) % 15) as i32 - 7));
        let b = Matrix::from_fn(k, n, |r, c| grid(((r * 2 + c * 7 + salt) % 15) as i32 - 7));
        let init = Matrix::from_fn(m, n, |r, c| grid(((r + 2 * c + salt) % 15) as i32 - 7));
        for workers in [1, 2, 4, 8] {
            check_parallel_matches_serial(&a, &b, &init, workers);
        }
    }
}

#[test]
fn parallel_path_is_bitwise_serial_on_forced_split_shapes() {
    // Shapes chosen to exceed PAR_MIN_MKN so the fan-out genuinely
    // engages: a square block, a tall-skinny product whose row count is
    // not a multiple of MR (remainder rows land in the last block), and
    // a wide product with a column tail (n % NR != 0).
    for &(m, k, n) in &[(64, 64, 64), (131, 40, 24), (48, 21, 77), (257, 16, 16)] {
        assert!(
            m * k * n >= nfv_tensor::gemm::PAR_MIN_MKN,
            "fixture ({m},{k},{n}) too small to engage the parallel path"
        );
        let a = dense_fixture(m, k, 0.61);
        let b = dense_fixture(k, n, 0.43);
        let init = dense_fixture(m, n, 0.29);
        for workers in 1..=8 {
            check_parallel_matches_serial(&a, &b, &init, workers);
        }
        // 0 = auto (host cores) must match too.
        check_parallel_matches_serial(&a, &b, &init, 0);
    }
}

#[test]
fn parallel_path_equals_the_naive_loop_bitwise() {
    // The backend's bit-exact contract vs the naive loop carries over to
    // every worker count of the row-panel fan-out.
    let (m, k, n) = (96, 33, 40);
    let a = dense_fixture(m, k, 0.37);
    let b = dense_fixture(k, n, 0.59);
    let mut want = Matrix::zeros(m, n);
    naive_nn_acc(&a, &b, &mut want);
    for workers in [2, 4, 8] {
        let got = nfv_tensor::gemm::with_threads(workers, || a.matmul(&b));
        assert_matrix_exact(&got, &want, "parallel vs naive");
    }
}

// ---------------------------------------------------------------------
// Empty-shape edge cases (explicit, beyond the proptest coverage).
// ---------------------------------------------------------------------

#[test]
fn empty_shapes_produce_empty_or_zero_outputs() {
    let a0 = Matrix::zeros(0, 5);
    let b = Matrix::zeros(5, 3);
    assert_eq!(a0.matmul(&b).shape(), (0, 3));

    let a = Matrix::filled(2, 0, 0.0);
    let b0 = Matrix::zeros(0, 4);
    let c = a.matmul(&b0);
    assert_eq!(c.shape(), (2, 4));
    assert!(c.as_slice().iter().all(|&v| v == 0.0), "k=0 product must be all zeros");

    let bn = Matrix::zeros(5, 0);
    assert_eq!(Matrix::zeros(2, 5).matmul(&bn).shape(), (2, 0));

    assert_eq!(a0.matmul_tn(&Matrix::zeros(0, 2)).shape(), (5, 2));
    let tn = a0.matmul_tn(&Matrix::zeros(0, 2));
    assert!(tn.as_slice().iter().all(|&v| v == 0.0));

    assert_eq!(a.matmul_nt(&Matrix::zeros(7, 0)).shape(), (2, 7));
}
