//! The one CPU-feature decision behind the vector kernels of [`crate::act`]
//! and [`crate::gemm`].
//!
//! [`Simd::host`] checks the CPU once per process and names the widest
//! path both modules take; neither checks features of its own for its
//! lane path. Every path gives the same bits, so the decision is pure
//! speed and no setting selects it. Tests reach the narrower paths
//! through [`with_simd`].

use std::cell::Cell;
use std::sync::OnceLock;

/// A vector path of the `act` and `gemm` kernels, narrowest first. Each
/// path's CPU features include those of every narrower one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Simd {
    /// No explicit vector code: scalar activations and the
    /// autovectorized GEMM kernel.
    Scalar,
    /// AVX: the 8-lane GEMM kernel; activations stay scalar.
    Avx,
    /// AVX2 and FMA: 8-lane activations and the 8-lane GEMM kernel.
    Avx2,
    /// AVX-512F and DQ: 16-lane activations and the 16-lane GEMM kernel.
    Avx512,
}

thread_local! {
    /// The path [`with_simd`] pinned for this thread, if any.
    static PINNED: Cell<Option<Simd>> = const { Cell::new(None) };
}

impl Simd {
    /// The widest path this CPU runs, detected on first use.
    pub fn host() -> Simd {
        static HOST: OnceLock<Simd> = OnceLock::new();
        *HOST.get_or_init(detect)
    }

    /// The path the kernels take on this thread: [`Simd::host`], unless
    /// [`with_simd`] pinned a narrower one.
    pub(crate) fn current() -> Simd {
        PINNED.with(Cell::get).unwrap_or_else(Simd::host)
    }

    /// Every path this CPU runs, narrowest first. For tests, which check
    /// each path against the scalar reference.
    #[doc(hidden)]
    pub fn supported() -> Vec<Simd> {
        [Simd::Scalar, Simd::Avx, Simd::Avx2, Simd::Avx512]
            .into_iter()
            .filter(|&s| s <= Simd::host())
            .collect()
    }
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Simd {
    use std::arch::is_x86_feature_detected as has;
    let avx2 = has!("avx") && has!("avx2") && has!("fma");
    if avx2 && has!("avx512f") && has!("avx512dq") {
        Simd::Avx512
    } else if avx2 {
        Simd::Avx2
    } else if has!("avx") {
        Simd::Avx
    } else {
        Simd::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Simd {
    Simd::Scalar
}

/// Runs `f` with the calling thread's kernels on `simd` instead of the
/// widest path, restoring the previous choice afterwards (also on
/// panic). For tests, which check every path the CPU runs; a GEMM fanned
/// out to the pool passes the pinned path to its workers.
///
/// # Panics
/// If the CPU cannot run `simd` (it is wider than [`Simd::host`]).
#[doc(hidden)]
pub fn with_simd<R>(simd: Simd, f: impl FnOnce() -> R) -> R {
    assert!(simd <= Simd::host(), "with_simd: this CPU cannot run {simd:?}");
    struct Restore(Option<Simd>);
    impl Drop for Restore {
        fn drop(&mut self) {
            PINNED.with(|p| p.set(self.0));
        }
    }
    let _restore = Restore(PINNED.with(|p| p.replace(Some(simd))));
    f()
}
