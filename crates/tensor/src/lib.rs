//! Dense `f32` linear-algebra kernels and statistics utilities.
//!
//! This crate is the numeric foundation of the `nfvpredict` workspace. It
//! deliberately follows the smoltcp design philosophy: simplicity and
//! robustness over clever type-level tricks. There is a single dense,
//! row-major [`Matrix`] type, a handful of free vector functions, seeded
//! random initializers, and the descriptive statistics (quantiles, CDFs,
//! histograms) used by the analysis figures of the paper reproduction.
//!
//! Shape errors are programming errors, not runtime conditions, so the
//! kernels `assert!` on mismatched dimensions with descriptive messages
//! rather than returning `Result`.

pub mod act;
pub mod gemm;
pub mod init;
pub mod matrix;
pub mod simd;
pub mod stats;
pub mod vecops;
pub mod workspace;

pub use init::{uniform_in, xavier_uniform};
pub use matrix::Matrix;
pub use workspace::Workspace;
