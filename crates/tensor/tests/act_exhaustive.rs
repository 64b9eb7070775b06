//! Exhaustive digests of `nfv_tensor::act`: all 2^32 `f32` inputs through
//! each scalar reference, and through each slice kernel on every lane
//! path the CPU runs, must reproduce the digests captured from the libm
//! the workspace's pins come from. About half a minute per function and
//! path in release; `--nocapture` shows which lane paths ran and which
//! the CPU made the run skip:
//!
//! ```sh
//! cargo test --release -p nfv-tensor --test act_exhaustive -- --ignored --nocapture
//! ```

mod act_digest;

use act_digest::{all_inputs_digest, block_inputs, EXP, LN, SIGMOID, TANH};
use nfv_tensor::act;
use nfv_tensor::simd::{with_simd, Simd};

/// The distinct lane paths of the slice kernels: `Simd::Avx` runs the
/// scalar loop, as `Simd::Scalar` does.
const KERNEL_PATHS: [Simd; 3] = [Simd::Scalar, Simd::Avx2, Simd::Avx512];

fn scalar_digest(f: fn(f32) -> f32) -> u64 {
    all_inputs_digest(|b| block_inputs(b).into_iter().map(f).collect())
}

/// The kernel's all-inputs digest, fed in slices whose lengths cycle
/// through 1..=67, so every tail length runs and lane-path and fallback
/// lanes share chunks in every mix.
fn kernel_digest(kernel: fn(&mut [f32])) -> u64 {
    let mut len = 0;
    all_inputs_digest(|b| {
        let mut xs = block_inputs(b);
        let mut rest = &mut xs[..];
        while !rest.is_empty() {
            len = len % 67 + 1;
            let (head, tail) = rest.split_at_mut(len.min(rest.len()));
            kernel(head);
            rest = tail;
        }
        xs
    })
}

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{name}: all-inputs digest {got:#018x}, want {want:#018x}");
}

/// Checks `kernel` on every path of [`KERNEL_PATHS`] the CPU runs, and
/// prints each path it ran or skipped.
fn check_kernel_paths(name: &str, kernel: fn(&mut [f32]), want: u64) {
    for simd in KERNEL_PATHS {
        if simd > Simd::host() {
            println!("{name} on {simd:?}: skipped, this CPU cannot run it");
            continue;
        }
        let got = with_simd(simd, || kernel_digest(kernel));
        check(&format!("{name} on {simd:?}"), got, want);
        println!("{name} on {simd:?}: all 2^32 inputs match");
    }
}

#[test]
#[ignore = "all 2^32 inputs: run in release with --ignored"]
fn exp_all_inputs() {
    check("exp", scalar_digest(act::exp), EXP.0);
    check_kernel_paths("exp_inplace", act::exp_inplace, EXP.0);
}

#[test]
#[ignore = "all 2^32 inputs: run in release with --ignored"]
fn sigmoid_all_inputs() {
    check("sigmoid", scalar_digest(act::sigmoid), SIGMOID.0);
    check_kernel_paths("sigmoid_inplace", act::sigmoid_inplace, SIGMOID.0);
}

#[test]
#[ignore = "all 2^32 inputs: run in release with --ignored"]
fn tanh_all_inputs() {
    check("tanh", scalar_digest(act::tanh), TANH.0);
    check_kernel_paths("tanh_inplace", act::tanh_inplace, TANH.0);
}

#[test]
#[ignore = "all 2^32 inputs: run in release with --ignored"]
fn ln_all_inputs() {
    check("ln", scalar_digest(act::ln), LN.0);
}
