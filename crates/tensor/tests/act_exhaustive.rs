//! Exhaustive digests of `nfv_tensor::act`: all 2^32 `f32` inputs through
//! each scalar reference and each dispatched slice kernel must reproduce
//! the digests captured from the libm the workspace's pins come from.
//! About half a minute per function in release:
//!
//! ```sh
//! cargo test --release -p nfv-tensor --test act_exhaustive -- --ignored
//! ```

mod act_digest;

use act_digest::{all_inputs_digest, block_inputs, EXP, LN, SIGMOID, TANH};
use nfv_tensor::act;

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

#[test]
#[ignore = "all 2^32 inputs: run in release with --ignored"]
fn exp_all_inputs() {
    check("exp", scalar_digest(act::exp), EXP.0);
    check("exp_inplace", kernel_digest(act::exp_inplace), EXP.0);
}

#[test]
#[ignore = "all 2^32 inputs: run in release with --ignored"]
fn sigmoid_all_inputs() {
    check("sigmoid", scalar_digest(act::sigmoid), SIGMOID.0);
    check("sigmoid_inplace", kernel_digest(act::sigmoid_inplace), SIGMOID.0);
}

#[test]
#[ignore = "all 2^32 inputs: run in release with --ignored"]
fn tanh_all_inputs() {
    check("tanh", scalar_digest(act::tanh), TANH.0);
    check("tanh_inplace", kernel_digest(act::tanh_inplace), TANH.0);
}

#[test]
#[ignore = "all 2^32 inputs: run in release with --ignored"]
fn ln_all_inputs() {
    check("ln", scalar_digest(act::ln), LN.0);
}
