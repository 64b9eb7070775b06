//! Digests over `f32 -> f32` functions, shared by the `act` test files.
//!
//! FNV-1a-64 (the constants of `nfv_nn::checkpoint::fnv1a64`) over the
//! little-endian bytes of each output's bit pattern:
//!
//! * block digest `d_b`: the outputs for inputs `b·2^16 .. b·2^16+65535`,
//!   in order;
//! * all-inputs digest: `d_0 .. d_65535`, each as 8 little-endian bytes;
//! * sample digest: the outputs for inputs `k·65537`, `k = 0..65536`.
//!
//! The constants were captured from glibc 2.36's `expf`, `tanhf` and
//! `logf` (x86-64, AVX2+FMA host), `sigmoid` composed from that `expf`.

#![allow(dead_code)]

/// `(all-inputs, sample)` digests of `act::exp`.
pub const EXP: (u64, u64) = (0xb00a_0501_625a_529a, 0xedaf_3712_4554_dc73);
/// `(all-inputs, sample)` digests of `act::sigmoid`.
pub const SIGMOID: (u64, u64) = (0x9d1a_1bee_8e62_7418, 0x9416_8552_3683_78b0);
/// `(all-inputs, sample)` digests of `act::tanh`.
pub const TANH: (u64, u64) = (0xdee0_38d9_4d51_2158, 0x4e02_5101_774e_312d);
/// `(all-inputs, sample)` digests of `act::ln`.
pub const LN: (u64, u64) = (0x3ab7_4b09_31fa_de76, 0x318f_0450_dd2a_2d08);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Digest of a run of outputs.
fn outputs_digest(ys: &[f32]) -> u64 {
    ys.iter().fold(FNV_OFFSET, |h, y| fnv1a64(h, &y.to_bits().to_le_bytes()))
}

/// Sample digest of the scalar function `f`.
pub fn sample_digest(f: fn(f32) -> f32) -> u64 {
    let ys: Vec<f32> = (0..65_536u32).map(|k| f(f32::from_bits(k.wrapping_mul(65_537)))).collect();
    outputs_digest(&ys)
}

/// All-inputs digest, given `block(b)`: the 65,536 outputs of block `b`.
pub fn all_inputs_digest(mut block: impl FnMut(u32) -> Vec<f32>) -> u64 {
    (0..65_536u32).fold(FNV_OFFSET, |h, b| fnv1a64(h, &outputs_digest(&block(b)).to_le_bytes()))
}

/// The inputs of block `b`, in order.
pub fn block_inputs(b: u32) -> Vec<f32> {
    (0..65_536u32).map(|i| f32::from_bits(b << 16 | i)).collect()
}
