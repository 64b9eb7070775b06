//! A scratch-buffer arena for allocation-free inner loops.
//!
//! Training and inference kernels need many short-lived intermediate
//! matrices per step (gate pre-activations, per-layer deltas), and the
//! backward packs transposed weights for the GEMM kernels once per pass. Allocating them fresh every step dominates the runtime of
//! small models, so hot paths borrow buffers from a [`Workspace`] instead:
//! `take` hands out a reshaped buffer (recycling a previous allocation
//! when one is big enough) and `recycle` returns it to the pool once the
//! caller is done. Buffers from `take` have **unspecified contents**; use
//! [`Workspace::take_zeroed`] when the kernel accumulates.

use crate::gemm::PackedRhs;
use crate::matrix::Matrix;

/// Pool of reusable [`Matrix`] buffers and packed GEMM operands.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    pool: Vec<Matrix>,
    packs: Vec<PackedRhs>,
}

impl Workspace {
    /// An empty workspace; buffers are allocated lazily on first use.
    pub fn new() -> Workspace {
        Workspace::default()
    }

    /// Number of buffers currently parked in the pool.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Borrows a `rows x cols` buffer with unspecified contents.
    ///
    /// Prefers a pooled buffer whose allocation already fits the request;
    /// otherwise repurposes any pooled buffer (growing it), and only
    /// allocates from scratch when the pool is empty.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        let need = rows * cols;
        let mut m = match self.pool.iter().position(|m| m.as_slice().len() >= need) {
            Some(i) => self.pool.swap_remove(i),
            None => self.pool.pop().unwrap_or_default(),
        };
        m.reset(rows, cols);
        m
    }

    /// Borrows a zero-filled `rows x cols` buffer.
    pub fn take_zeroed(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut m = self.take(rows, cols);
        m.fill_zero();
        m
    }

    /// Returns a buffer to the pool for later reuse.
    pub fn recycle(&mut self, m: Matrix) {
        self.pool.push(m);
    }

    /// `bᵀ` packed as the rhs of `a · bᵀ` ([`PackedRhs::pack_transposed`])
    /// into a pooled buffer. A buffer keeps the largest operand it has
    /// held, so a pass that packs the same operands every time stops
    /// allocating.
    pub fn pack_transposed(&mut self, b: &Matrix) -> PackedRhs {
        let mut p = self.packs.pop().unwrap_or_default();
        p.pack_transposed(b);
        p
    }

    /// Returns a packed operand to the pool for later reuse.
    pub fn recycle_packed(&mut self, p: PackedRhs) {
        self.packs.push(p);
    }

    /// Shapes `seq` to exactly `len` matrices of `rows x cols` each,
    /// recycling surplus entries and drawing new ones from the pool.
    /// Contents of every entry are unspecified afterwards.
    pub fn ensure_seq(&mut self, seq: &mut Vec<Matrix>, len: usize, rows: usize, cols: usize) {
        while seq.len() > len {
            let m = seq.pop().expect("len checked above");
            self.recycle(m);
        }
        for m in seq.iter_mut() {
            m.reset(rows, cols);
        }
        while seq.len() < len {
            seq.push(self.take(rows, cols));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycle_reuses_allocation() {
        let mut ws = Workspace::new();
        let a = ws.take(4, 4);
        assert_eq!(a.shape(), (4, 4));
        ws.recycle(a);
        assert_eq!(ws.pooled(), 1);
        // A smaller request must reuse the pooled 16-element buffer.
        let b = ws.take(2, 3);
        assert_eq!(b.shape(), (2, 3));
        assert_eq!(ws.pooled(), 0);
    }

    #[test]
    fn take_zeroed_clears_recycled_contents() {
        let mut ws = Workspace::new();
        let mut a = ws.take(2, 2);
        a.fill_zero();
        a.set(0, 0, 7.0);
        ws.recycle(a);
        let b = ws.take_zeroed(2, 2);
        assert_eq!(b.as_slice(), &[0.0; 4]);
    }

    #[test]
    fn ensure_seq_grows_and_shrinks() {
        let mut ws = Workspace::new();
        let mut seq = Vec::new();
        ws.ensure_seq(&mut seq, 3, 2, 5);
        assert_eq!(seq.len(), 3);
        assert!(seq.iter().all(|m| m.shape() == (2, 5)));
        ws.ensure_seq(&mut seq, 1, 4, 4);
        assert_eq!(seq.len(), 1);
        assert_eq!(seq[0].shape(), (4, 4));
        assert_eq!(ws.pooled(), 2);
    }
}
