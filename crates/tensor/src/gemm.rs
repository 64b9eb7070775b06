//! Blocked, SIMD-friendly GEMM backend behind the [`Matrix`] `matmul_*`
//! kernels.
//!
//! All three product forms reduce to one packed inner kernel computing
//! `C += A · B` with `A` row-major and `B` repacked into column panels of
//! `W` consecutive columns (`panel[k * W + lane] = b[k][j0 + lane]`), so
//! the innermost loop reads both operands contiguously. The panel width
//! follows the kernel [`Simd::host`] selects: 16 columns for the AVX-512
//! kernel, [`NR`] = 8 for the AVX and scalar kernels.
//!
//! * `matmul` (`A · B`): pack `B`'s rows into panels.
//! * `matmul_tn` (`Aᵀ · B`): transpose-pack `A`, then run the same kernel.
//! * `matmul_nt` (`A · Bᵀ`): transpose-pack `B` into panels.
//!
//! The micro-kernel accumulates [`MR`] output rows × one panel at a time
//! with lane accumulators held in registers across the entire `k` loop.
//! Every output element still receives its contributions **in ascending
//! `k` order, one rounded multiply and one rounded add per contribution**
//! — exactly the arithmetic of the pre-existing scalar loops — so the
//! default backend is bit-identical to them on finite inputs, whether the
//! lanes are evaluated by the autovectorized scalar kernel or by an
//! explicit AVX or AVX-512 kernel selected at runtime (`mul_ps` then
//! `add_ps` are element-wise IEEE ops, never fused). The panel width only
//! decides which lane computes an element, never its arithmetic. The
//! 16-lane kernel covers the last, partial panel with masked loads and
//! stores of `C`; the others finish it with a per-row tail kernel.
//!
//! Unlike the old loops, the kernel has **no zero-skip fast path**: a
//! `0.0` in `A` no longer suppresses the multiply, so a NaN/Inf in `B`
//! propagates to the output (`0.0 * NaN` is NaN) instead of being
//! silently swallowed. Sparsity no longer buys skipped work, but the
//! packed panels recover far more than the skip ever did.
//!
//! Pack buffers are thread-local and grow-only, so steady-state training
//! does not allocate in here.
//!
//! ## Row-panel parallelism
//!
//! Large products additionally fan out over **row blocks** through the
//! persistent [`nfv_pool`] worker pool: the rhs is packed *once* on the
//! calling thread, the immutable packed panels are shared by every
//! worker, and each worker computes a disjoint, MR-aligned block of
//! output rows. Because every output element is produced by the exact
//! same per-element arithmetic regardless of which block it lands in
//! (the micro-kernels are row-independent — accumulators never cross
//! rows), the parallel result is **bit-identical to the serial kernel
//! for any worker count**. Row blocks are carved in ascending row order and written
//! panel-ordered within each block, so there is nothing to reduce and
//! nothing timing-dependent to observe.
//!
//! The worker count is the same `--threads` knob as everywhere else:
//! [`set_threads`] is called by the pipeline/CLI/bench entry points with
//! their configured thread count (`0` = auto, resolved by
//! `nfv_pool::resolve_workers`). Products below [`PAR_MIN_MKN`] and
//! regions already running *on* a pool worker (e.g. a GEMM inside a
//! gradient-shard task) stay serial — the outer region owns the cores.

use crate::simd::Simd;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Panel width of the AVX and scalar kernels (columns per packed panel /
/// SIMD lanes per accumulator).
pub const NR: usize = 8;
/// Panel width of the AVX-512 kernel.
const NR16: usize = 16;
/// Output rows processed together by the micro-kernel.
pub const MR: usize = 4;

/// Minimum product volume (`m · k · n` multiplies) for the row-panel
/// parallel path. Below this the whole product takes ~tens of
/// microseconds serially — the same order as a measured pool dispatch —
/// so the fan-out cannot win.
pub const PAR_MIN_MKN: usize = 32 * 1024;

thread_local! {
    /// Reusable packing arenas: `[0]` holds the packed rhs panels, `[1]`
    /// the transpose-packed lhs used by the `tn` form.
    static PACK: RefCell<[Vec<f32>; 2]> = const { RefCell::new([Vec::new(), Vec::new()]) };

    /// Per-thread override of the process-wide worker count, used by
    /// [`with_threads`] (tests and scoped experiments).
    static THREADS_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Process-wide GEMM worker request. `1` (the default) keeps every
/// product serial; `0` means auto (one worker per host core). This is
/// set from the same `--threads` configuration that drives the trainer
/// and the scoring fan-out — there is deliberately no second knob.
static THREADS: AtomicUsize = AtomicUsize::new(1);

/// Sets the process-wide GEMM worker request (`0` = auto, `1` = serial,
/// `n` = up to `n` workers, capped at the host's core count by the pool
/// resolver). Any value produces bit-identical results; this is purely a
/// scheduling knob, so entry points (pipeline, CLI, benches) call it
/// with their `--threads` setting once at startup.
pub fn set_threads(threads: usize) {
    // Same cap policy as every other parallel region: oversubscribing
    // the host only adds dispatch overhead (outputs are identical
    // either way), so resolve the request through the pool's policy.
    // The `with_threads` override stays raw so tests can force
    // multi-panel partitions on any machine.
    THREADS.store(nfv_pool::resolve_workers(threads, usize::MAX), Ordering::Relaxed);
}

/// The currently effective worker request for this thread: the
/// [`with_threads`] override when inside one, else the process-wide
/// [`set_threads`] value.
pub fn configured_threads() -> usize {
    THREADS_OVERRIDE.with(|t| t.get()).unwrap_or_else(|| THREADS.load(Ordering::Relaxed))
}

/// Runs `f` with the calling thread's GEMM worker request overridden to
/// `threads`, restoring the previous value afterwards (also on panic).
/// Tests use this to compare worker counts without racing the global.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREADS_OVERRIDE.with(|t| t.set(self.0));
        }
    }
    let _restore = Restore(THREADS_OVERRIDE.with(|t| t.replace(Some(threads))));
    f()
}

// ---------------------------------------------------------------------
// Public entry points (called from `Matrix::matmul_*`).
// ---------------------------------------------------------------------

/// `c += a · b` where `a` is `m x k`, `b` is `k x n`, `c` is `m x n`,
/// all row-major.
pub fn gemm_nn_acc(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let simd = Simd::current();
    PACK.with(|bufs| {
        let bufs = &mut *bufs.borrow_mut();
        let (packed, _) = bufs.split_at_mut(1);
        pack_rhs(panel_width(simd), k, n, b, &mut packed[0]);
        kernel_dispatch(simd, m, k, n, a, &packed[0], c);
    });
}

/// `c += aᵀ · b` where `a` is `r x m` (so `aᵀ` is `m x r`), `b` is
/// `r x n`, `c` is `m x n`.
///
/// `a` is transpose-packed into a scratch `m x r` row-major buffer and
/// the product then runs through the same panel kernel as the `nn` form;
/// per output element the reduction stays in ascending shared-row order,
/// matching the old outer-product loop bit for bit.
pub fn gemm_tn_acc(r: usize, m: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), r * m);
    debug_assert_eq!(b.len(), r * n);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || r == 0 || n == 0 {
        return;
    }
    let simd = Simd::current();
    PACK.with(|bufs| {
        let bufs = &mut *bufs.borrow_mut();
        let (packed, at) = bufs.split_at_mut(1);
        pack_rhs(panel_width(simd), r, n, b, &mut packed[0]);
        // Transpose-pack a (r x m) into at (m x r).
        let at = &mut at[0];
        at.clear();
        at.resize(m * r, 0.0);
        for (i, row) in a.chunks_exact(m).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                at[j * r + i] = v;
            }
        }
        kernel_dispatch(simd, m, r, n, at, &packed[0], c);
    });
}

/// `c += a · bᵀ` where `a` is `m x k`, `b` is `j x k` (so `bᵀ` is
/// `k x j`), `c` is `m x j`.
pub fn gemm_nt_acc(m: usize, k: usize, j: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), j * k);
    debug_assert_eq!(c.len(), m * j);
    if m == 0 || k == 0 || j == 0 {
        return;
    }
    let simd = Simd::current();
    PACK.with(|bufs| {
        let bufs = &mut *bufs.borrow_mut();
        let (packed, _) = bufs.split_at_mut(1);
        pack_rhs_transposed(panel_width(simd), k, j, b, &mut packed[0]);
        kernel_dispatch(simd, m, k, j, a, &packed[0], c);
    });
}

// ---------------------------------------------------------------------
// Packing.
// ---------------------------------------------------------------------

/// Panel width of the kernel `simd` selects.
fn panel_width(simd: Simd) -> usize {
    if simd == Simd::Avx512 {
        NR16
    } else {
        NR
    }
}

/// Number of full width-`w` panels and leftover columns for a width-`n`
/// rhs.
#[inline]
fn panels_of(w: usize, n: usize) -> (usize, usize) {
    (n / w, n % w)
}

/// Packs a row-major `k x n` matrix into `w`-column panels:
/// `out[p * k * w + kk * w + lane] = b[kk * n + p * w + lane]`.
/// The last panel is zero-padded when `n % w != 0`; the tail kernels
/// read it with the same layout but only store the live lanes.
fn pack_rhs(w: usize, k: usize, n: usize, b: &[f32], out: &mut Vec<f32>) {
    let (np, tail) = panels_of(w, n);
    let np_total = np + usize::from(tail > 0);
    out.clear();
    out.resize(np_total * k * w, 0.0);
    for p in 0..np_total {
        let (col0, lanes) = (p * w, if p < np { w } else { tail });
        let dst = &mut out[p * k * w..(p + 1) * k * w];
        for (kk, row) in dst.chunks_exact_mut(w).enumerate() {
            row[..lanes].copy_from_slice(&b[kk * n + col0..kk * n + col0 + lanes]);
        }
    }
}

/// Packs panels of the *transpose* of a row-major `j x k` matrix, i.e.
/// the same layout [`pack_rhs`] would produce for the `k x j` matrix
/// `bᵀ`: `out[p * k * w + kk * w + lane] = b[(p * w + lane) * k + kk]`,
/// again zero-padding the last panel.
fn pack_rhs_transposed(w: usize, k: usize, j: usize, b: &[f32], out: &mut Vec<f32>) {
    let (np, tail) = panels_of(w, j);
    let np_total = np + usize::from(tail > 0);
    out.clear();
    out.resize(np_total * k * w, 0.0);
    for p in 0..np_total {
        let lanes = if p < np { w } else { tail };
        let dst = &mut out[p * k * w..(p + 1) * k * w];
        for lane in 0..lanes {
            let src = &b[(p * w + lane) * k..(p * w + lane + 1) * k];
            for (kk, &v) in src.iter().enumerate() {
                dst[kk * w + lane] = v;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Kernel dispatch.
// ---------------------------------------------------------------------

/// Number of row blocks the parallel path would use for an `m x k · k x n`
/// product under the current worker request: 1 when the product is too
/// small ([`PAR_MIN_MKN`]) or serial was requested, otherwise the request
/// (auto = host cores) capped by the number of MR-row panels.
fn row_blocks(requested: usize, m: usize, k: usize, n: usize) -> usize {
    if requested == 1 || m.saturating_mul(k).saturating_mul(n) < PAR_MIN_MKN {
        return 1;
    }
    let req = if requested == 0 { nfv_pool::host_cores() } else { requested };
    req.min(m.div_ceil(MR)).max(1)
}

/// Runs the packed kernel over the whole output, fanning MR-aligned row
/// blocks out across the persistent pool when the product is large
/// enough. Every worker reads the same packed panels and writes its own
/// disjoint row range with the identical per-element arithmetic, so this
/// is bit-identical to [`kernel_rows`] on one thread (see module docs).
fn kernel_dispatch(
    simd: Simd,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    packed: &[f32],
    c: &mut [f32],
) {
    let blocks = row_blocks(configured_threads(), m, k, n);
    // Nested regions (a GEMM inside a pool task) stay serial: the outer
    // fan-out already owns the workers, and the pool would run the
    // spawned tasks inline anyway.
    if blocks <= 1 || nfv_pool::in_worker() {
        kernel_rows(simd, m, k, n, a, packed, c);
        return;
    }
    // MR-aligned block height so only the last block has remainder rows;
    // a.chunks and c.chunks_mut carve the same ascending row ranges.
    let rows = m.div_ceil(blocks).next_multiple_of(MR);
    nfv_pool::global().scope(|s| {
        for (ab, cb) in a.chunks(rows * k).zip(c.chunks_mut(rows * n)) {
            s.spawn(move || kernel_rows(simd, cb.len() / n, k, n, ab, packed, cb));
        }
    });
}

/// Runs the kernel `simd` selects over a row range of panels packed at
/// its width. The AVX-512 kernel covers every panel; the others run
/// every full panel, then the zero-padded tail panel (last `n % NR`
/// columns) with per-lane scalar stores. `a` is `m x k` row-major.
fn kernel_rows(simd: Simd, m: usize, k: usize, n: usize, a: &[f32], packed: &[f32], c: &mut [f32]) {
    let (np, tail) = panels_of(NR, n);
    match simd {
        // SAFETY: `simd` comes from `Simd::current`, which names only a
        // path the CPU runs; AVX-512 includes AVX-512F.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx512 => unsafe { panels_avx512(m, k, n, a, packed, c) },
        // SAFETY: as above; both paths include AVX.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx | Simd::Avx2 => {
            unsafe { panels_avx(m, k, n, a, packed, c, np) };
            tail_from_panel(m, k, n, a, packed, c, np, tail);
        }
        _ => {
            panels_scalar(m, k, n, a, packed, c, np);
            tail_from_panel(m, k, n, a, packed, c, np, tail);
        }
    }
}

/// Scalar micro-kernel over the packed panels; the fixed-width lane
/// arrays autovectorize on targets without the explicit SIMD path.
#[allow(clippy::too_many_arguments)]
fn panels_scalar(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    packed: &[f32],
    c: &mut [f32],
    np: usize,
) {
    for p in 0..np {
        let panel = &packed[p * k * NR..(p + 1) * k * NR];
        let col0 = p * NR;
        let mut i = 0;
        while i + MR <= m {
            let (a0, a1, a2, a3) =
                (&a[i * k..], &a[(i + 1) * k..], &a[(i + 2) * k..], &a[(i + 3) * k..]);
            let mut acc = [[0.0f32; NR]; MR];
            for (r, acc_r) in acc.iter_mut().enumerate() {
                acc_r.copy_from_slice(&c[(i + r) * n + col0..(i + r) * n + col0 + NR]);
            }
            for kk in 0..k {
                let brow = &panel[kk * NR..(kk + 1) * NR];
                let av = [a0[kk], a1[kk], a2[kk], a3[kk]];
                for (acc_r, &ar) in acc.iter_mut().zip(av.iter()) {
                    for (lane, &b) in acc_r.iter_mut().zip(brow.iter()) {
                        *lane += ar * b;
                    }
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                c[(i + r) * n + col0..(i + r) * n + col0 + NR].copy_from_slice(acc_r);
            }
            i += MR;
        }
        while i < m {
            let arow = &a[i * k..(i + 1) * k];
            let mut acc = [0.0f32; NR];
            acc.copy_from_slice(&c[i * n + col0..i * n + col0 + NR]);
            for (kk, &av) in arow.iter().enumerate() {
                let brow = &panel[kk * NR..(kk + 1) * NR];
                for (lane, &b) in acc.iter_mut().zip(brow.iter()) {
                    *lane += av * b;
                }
            }
            c[i * n + col0..i * n + col0 + NR].copy_from_slice(&acc);
            i += 1;
        }
    }
}

/// Column tail (`n % NR` rightmost columns): lane accumulators over the
/// zero-padded final panel, storing only the live lanes. Accumulation
/// per element is still one multiply + one add per ascending `k`.
#[allow(clippy::too_many_arguments)]
fn tail_from_panel(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    packed: &[f32],
    c: &mut [f32],
    np: usize,
    tail: usize,
) {
    if tail == 0 {
        return;
    }
    let panel = &packed[np * k * NR..(np + 1) * k * NR];
    let col0 = np * NR;
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let mut acc = [0.0f32; NR];
        acc[..tail].copy_from_slice(&c[i * n + col0..i * n + col0 + tail]);
        for (kk, &av) in arow.iter().enumerate() {
            let brow = &panel[kk * NR..(kk + 1) * NR];
            for (lane, &b) in acc.iter_mut().zip(brow.iter()) {
                *lane += av * b;
            }
        }
        c[i * n + col0..i * n + col0 + tail].copy_from_slice(&acc[..tail]);
    }
}

// ---------------------------------------------------------------------
// Explicit x86_64 SIMD kernels.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[allow(clippy::too_many_arguments)]
unsafe fn panels_avx(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    packed: &[f32],
    c: &mut [f32],
    np: usize,
) {
    use std::arch::x86_64::*;
    for p in 0..np {
        let panel = packed[p * k * NR..(p + 1) * k * NR].as_ptr();
        let col0 = p * NR;
        let mut i = 0;
        while i + MR <= m {
            let a0 = a[i * k..].as_ptr();
            let a1 = a[(i + 1) * k..].as_ptr();
            let a2 = a[(i + 2) * k..].as_ptr();
            let a3 = a[(i + 3) * k..].as_ptr();
            let mut acc0 = _mm256_loadu_ps(c[i * n + col0..].as_ptr());
            let mut acc1 = _mm256_loadu_ps(c[(i + 1) * n + col0..].as_ptr());
            let mut acc2 = _mm256_loadu_ps(c[(i + 2) * n + col0..].as_ptr());
            let mut acc3 = _mm256_loadu_ps(c[(i + 3) * n + col0..].as_ptr());
            for kk in 0..k {
                let b = _mm256_loadu_ps(panel.add(kk * NR));
                // mul + add (not fused): identical rounding to the scalar
                // reference, which is what keeps this path bit-exact.
                acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_set1_ps(*a0.add(kk)), b));
                acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_set1_ps(*a1.add(kk)), b));
                acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_set1_ps(*a2.add(kk)), b));
                acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_set1_ps(*a3.add(kk)), b));
            }
            _mm256_storeu_ps(c[i * n + col0..].as_mut_ptr(), acc0);
            _mm256_storeu_ps(c[(i + 1) * n + col0..].as_mut_ptr(), acc1);
            _mm256_storeu_ps(c[(i + 2) * n + col0..].as_mut_ptr(), acc2);
            _mm256_storeu_ps(c[(i + 3) * n + col0..].as_mut_ptr(), acc3);
            i += MR;
        }
        while i < m {
            let arow = a[i * k..].as_ptr();
            let mut acc = _mm256_loadu_ps(c[i * n + col0..].as_ptr());
            for kk in 0..k {
                let b = _mm256_loadu_ps(panel.add(kk * NR));
                acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(*arow.add(kk)), b));
            }
            _mm256_storeu_ps(c[i * n + col0..].as_mut_ptr(), acc);
            i += 1;
        }
    }
}

/// The 16-lane kernel over every panel of `packed` (packed at width
/// [`NR16`]), the last one included: its loads and stores of `c` are
/// masked to the live columns, and its zero-padded panel lanes are never
/// stored.
///
/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn panels_avx512(m: usize, k: usize, n: usize, a: &[f32], packed: &[f32], c: &mut [f32]) {
    use std::arch::x86_64::*;
    for p in 0..n.div_ceil(NR16) {
        let panel = packed[p * k * NR16..(p + 1) * k * NR16].as_ptr();
        let col0 = p * NR16;
        let live = (n - col0).min(NR16);
        let mask: __mmask16 = if live == NR16 { !0 } else { (1 << live) - 1 };
        // Row `r`'s `live` columns of this panel, bounds-checked; the
        // masked loads and stores touch no others.
        let mut c_at = |r: usize| c[r * n + col0..r * n + col0 + live].as_mut_ptr();
        let mut i = 0;
        while i + MR <= m {
            let a0 = a[i * k..].as_ptr();
            let a1 = a[(i + 1) * k..].as_ptr();
            let a2 = a[(i + 2) * k..].as_ptr();
            let a3 = a[(i + 3) * k..].as_ptr();
            let mut acc0 = _mm512_maskz_loadu_ps(mask, c_at(i));
            let mut acc1 = _mm512_maskz_loadu_ps(mask, c_at(i + 1));
            let mut acc2 = _mm512_maskz_loadu_ps(mask, c_at(i + 2));
            let mut acc3 = _mm512_maskz_loadu_ps(mask, c_at(i + 3));
            for kk in 0..k {
                let b = _mm512_loadu_ps(panel.add(kk * NR16));
                // mul + add (not fused), as in the AVX kernel.
                acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(_mm512_set1_ps(*a0.add(kk)), b));
                acc1 = _mm512_add_ps(acc1, _mm512_mul_ps(_mm512_set1_ps(*a1.add(kk)), b));
                acc2 = _mm512_add_ps(acc2, _mm512_mul_ps(_mm512_set1_ps(*a2.add(kk)), b));
                acc3 = _mm512_add_ps(acc3, _mm512_mul_ps(_mm512_set1_ps(*a3.add(kk)), b));
            }
            _mm512_mask_storeu_ps(c_at(i), mask, acc0);
            _mm512_mask_storeu_ps(c_at(i + 1), mask, acc1);
            _mm512_mask_storeu_ps(c_at(i + 2), mask, acc2);
            _mm512_mask_storeu_ps(c_at(i + 3), mask, acc3);
            i += MR;
        }
        while i < m {
            let arow = a[i * k..].as_ptr();
            let mut acc = _mm512_maskz_loadu_ps(mask, c_at(i));
            for kk in 0..k {
                let b = _mm512_loadu_ps(panel.add(kk * NR16));
                acc = _mm512_add_ps(acc, _mm512_mul_ps(_mm512_set1_ps(*arow.add(kk)), b));
            }
            _mm512_mask_storeu_ps(c_at(i), mask, acc);
            i += 1;
        }
    }
}
