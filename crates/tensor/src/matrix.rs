//! A dense, row-major `f32` matrix and the kernels used by the neural
//! network and classical ML crates.

use crate::act;
use crate::gemm::PackedRhs;
use std::fmt;
use std::ops::Range;

/// Dense row-major matrix of `f32`.
///
/// The element at row `r`, column `c` lives at `data[r * cols + c]`.
/// All binary operations assert shape compatibility.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            for r in 0..self.rows {
                write!(f, "\n  {:?}", &self.data[r * self.cols..(r + 1) * self.cols])?;
            }
        }
        Ok(())
    }
}

impl Default for Matrix {
    /// An empty `0 x 0` matrix; useful as a placeholder in reusable
    /// scratch structures that are shaped on first use via
    /// [`Matrix::reset`].
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Matrix {
    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// A `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair, handy for assertions.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of the backing row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index {} out of bounds ({} rows)", r, self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index {} out of bounds ({} rows)", r, self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies `src` into row `r`.
    pub fn set_row(&mut self, r: usize, src: &[f32]) {
        assert_eq!(src.len(), self.cols, "set_row: length mismatch");
        self.row_mut(r).copy_from_slice(src);
    }

    /// Extracts column `c` as a fresh vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "col index {} out of bounds ({} cols)", c, self.cols);
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Returns a new matrix containing rows `[start, end)`.
    pub fn rows_range(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows, "rows_range out of bounds");
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Reshapes `self` to `rows x cols`, reusing the allocation where
    /// possible. Element contents are **unspecified** afterwards — callers
    /// must overwrite every element (or call [`Matrix::fill_zero`]).
    pub fn reset(&mut self, rows: usize, cols: usize) {
        let n = rows * cols;
        if self.data.len() != n {
            self.data.resize(n, 0.0);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// Makes `self` an exact copy of `src`, reusing the allocation.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.reset(src.rows, src.cols);
        self.data.copy_from_slice(&src.data);
    }

    /// Gathers the given rows into a new matrix (used for mini-batching).
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.gather_rows_into(indices, &mut out);
        out
    }

    /// Gathers the given rows into `out` (reshaped to `indices.len() x cols`).
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.reset(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
    }

    /// Adds each row of `src` into `self`'s row `indices[r]` (the sparse
    /// row scatter used by embedding-table gradients).
    pub fn scatter_add_rows(&mut self, indices: &[usize], src: &Matrix) {
        assert_eq!(src.rows, indices.len(), "scatter_add_rows: row count mismatch");
        assert_eq!(src.cols, self.cols, "scatter_add_rows: width mismatch");
        for (r, &id) in indices.iter().enumerate() {
            assert!(
                id < self.rows,
                "scatter_add_rows: row {} out of bounds ({} rows)",
                id,
                self.rows
            );
            for (d, &s) in self.row_mut(id).iter_mut().zip(src.row(r).iter()) {
                *d += s;
            }
        }
    }

    /// Matrix product `self * rhs`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Writes `self * rhs` into `out` (reshaped to `rows x rhs.cols`).
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        out.reset(self.rows, rhs.cols);
        out.fill_zero();
        self.matmul_acc(rhs, out);
    }

    /// Accumulates `self * rhs` into `out`: `out += self * rhs`.
    ///
    /// Dispatches into the packed [`crate::gemm`] backend. Each output
    /// element accumulates in ascending-k order with unfused multiplies,
    /// so default-feature results are bit-identical to a scalar i-k-j
    /// loop; a NaN/Inf anywhere in the operands always propagates (there
    /// is deliberately no zero-skip fast path).
    pub fn matmul_acc(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: inner dimensions differ ({}x{} * {}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(out.shape(), (self.rows, rhs.cols), "matmul_acc: out shape mismatch");
        crate::gemm::gemm_nn_acc(
            self.rows,
            self.cols,
            rhs.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
    }

    /// Matrix product `self^T * rhs` without materializing the transpose.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_tn_into(rhs, &mut out);
        out
    }

    /// Writes `self^T * rhs` into `out` (reshaped to `cols x rhs.cols`).
    pub fn matmul_tn_into(&self, rhs: &Matrix, out: &mut Matrix) {
        out.reset(self.cols, rhs.cols);
        out.fill_zero();
        self.matmul_tn_acc(rhs, out);
    }

    /// Accumulates `self^T * rhs` into `out`: `out += self^T * rhs`.
    ///
    /// Dispatches into the packed [`crate::gemm`] backend; per-element
    /// accumulation stays in ascending shared-row order (bit-exact vs.
    /// the scalar loop under default features), and non-finite operands
    /// always propagate.
    pub fn matmul_tn_acc(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn: row counts differ ({}x{} ^T * {}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(out.shape(), (self.cols, rhs.cols), "matmul_tn_acc: out shape mismatch");
        crate::gemm::gemm_tn_acc(
            self.rows,
            self.cols,
            rhs.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
    }

    /// Adds `self^T * rhs`, summed from zero, into `out` once:
    /// `out += (self^T * rhs)`.
    ///
    /// The bits equal [`Matrix::matmul_tn_into`] into a temporary
    /// followed by `out.add_assign(&tmp)`, without the temporary, its
    /// zero-fill or the second pass over `out` (see
    /// [`crate::gemm::gemm_tn_add_once`]).
    pub fn matmul_tn_add_once(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn: row counts differ ({}x{} ^T * {}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(out.shape(), (self.cols, rhs.cols), "matmul_tn_add_once: out shape mismatch");
        crate::gemm::gemm_tn_add_once(
            self.rows,
            self.cols,
            rhs.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
    }

    /// Writes `self * b^T` into `out` (reshaped to `rows x b.rows`) for a
    /// `b` packed once into `rhs` by [`PackedRhs::pack_transposed`]: the
    /// bits of [`Matrix::matmul_nt_into`] on the unpacked `b`.
    pub fn matmul_packed_into(&self, rhs: &PackedRhs, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            rhs.rows(),
            "matmul: inner dimensions differ ({}x{} * packed {}x{})",
            self.rows,
            self.cols,
            rhs.rows(),
            rhs.cols()
        );
        out.reset(self.rows, rhs.cols());
        out.fill_zero();
        crate::gemm::gemm_packed_acc(self.rows, &self.data, rhs, &mut out.data);
    }

    /// Matrix product `self * rhs^T` without materializing the transpose.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_nt_into(rhs, &mut out);
        out
    }

    /// Writes `self * rhs^T` into `out` (reshaped to `rows x rhs.rows`).
    pub fn matmul_nt_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt: column counts differ ({}x{} * {}x{}^T)",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reset(self.rows, rhs.rows);
        out.fill_zero();
        crate::gemm::gemm_nt_acc(
            self.rows,
            self.cols,
            rhs.rows,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.transpose_into(&mut out);
        out
    }

    /// Writes the transpose of `self` into `out` (reshaped to `cols x rows`).
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reset(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Elementwise in-place addition: `self += rhs`.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// Elementwise in-place subtraction: `self -= rhs`.
    pub fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "sub_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= b;
        }
    }

    /// In-place scaled addition: `self += alpha * rhs` (BLAS `axpy`).
    pub fn scaled_add_assign(&mut self, alpha: f32, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "scaled_add_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Writes `self + alpha * rhs` into `out` (reshaped to match `self`).
    pub fn add_scaled_into(&self, alpha: f32, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_scaled_into: shape mismatch");
        out.reset(self.rows, self.cols);
        for ((o, &a), &b) in out.data.iter_mut().zip(self.data.iter()).zip(rhs.data.iter()) {
            *o = a + alpha * b;
        }
    }

    /// Elementwise (Hadamard) product into a new matrix.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "hadamard: shape mismatch");
        let data = self.data.iter().zip(rhs.data.iter()).map(|(a, b)| a * b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Adds `row` to every row of `self` (bias broadcast).
    pub fn add_row_broadcast(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "add_row_broadcast: width mismatch");
        for r in 0..self.rows {
            for (a, b) in self.row_mut(r).iter_mut().zip(row.iter()) {
                *a += b;
            }
        }
    }

    /// Sums over rows, producing a length-`cols` vector (bias gradients).
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (o, &a) in out.iter_mut().zip(self.row(r).iter()) {
                *o += a;
            }
        }
        out
    }

    /// Accumulates the column-wise sums of `self` into `out`, a `1 x cols`
    /// row vector: `out += sum_rows(self)`.
    pub fn sum_rows_acc(&self, out: &mut Matrix) {
        assert_eq!(out.shape(), (1, self.cols), "sum_rows_acc: out shape mismatch");
        for r in 0..self.rows {
            for (o, &a) in out.data.iter_mut().zip(self.row(r).iter()) {
                *o += a;
            }
        }
    }

    /// Writes the column-wise sums of `self` into `out` (reshaped to `1 x cols`).
    pub fn sum_rows_into(&self, out: &mut Matrix) {
        out.reset(1, self.cols);
        out.fill_zero();
        self.sum_rows_acc(out);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum::<f32>().sqrt()
    }

    /// Largest absolute element.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &a| m.max(a.abs()))
    }

    /// In-place row-wise softmax (numerically stabilized): one
    /// [`act::exp_inplace`] call over the whole matrix, then each row's
    /// left-to-right sum.
    pub fn softmax_rows_inplace(&mut self) {
        let cols = self.cols;
        if cols == 0 {
            return;
        }
        for row in self.data.chunks_exact_mut(cols) {
            let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            for v in row.iter_mut() {
                *v -= max;
            }
        }
        act::exp_inplace(&mut self.data);
        for row in self.data.chunks_exact_mut(cols) {
            let mut sum = 0.0f32;
            for &v in row.iter() {
                sum += v;
            }
            let inv = 1.0 / sum;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
    }

    /// Applies the slice kernel `kernel` (e.g. [`act::sigmoid_inplace`])
    /// in place to the columns `cols` (ascending, disjoint ranges) of
    /// every row, in one call over the whole matrix.
    ///
    /// Several rows' segments are packed into one contiguous stack buffer
    /// per kernel call, so the 8-lane kernels run on full chunks even when
    /// one row's segment is shorter than a chunk. The kernels are
    /// elementwise, so each element gets exactly the value `kernel` gives
    /// it in place.
    pub fn apply_cols(&mut self, kernel: fn(&mut [f32]), cols: &[Range<usize>]) {
        const STAGE: usize = 512;
        let stride = self.cols;
        assert!(
            cols.windows(2).all(|w| w[0].end <= w[1].start)
                && cols.last().is_none_or(|c| c.end <= stride),
            "apply_cols: column ranges must be ascending, disjoint and in bounds"
        );
        let width: usize = cols.iter().map(|c| c.len()).sum();
        if width == 0 || self.data.is_empty() {
            return;
        }
        let rows_per_stage = STAGE / width;
        if rows_per_stage == 0 {
            for row in self.data.chunks_exact_mut(stride) {
                for c in cols {
                    kernel(&mut row[c.clone()]);
                }
            }
            return;
        }
        let mut stage = [0.0f32; STAGE];
        for rows in self.data.chunks_mut(rows_per_stage * stride) {
            let mut n = 0;
            for row in rows.chunks_exact(stride) {
                for c in cols {
                    stage[n..n + c.len()].copy_from_slice(&row[c.clone()]);
                    n += c.len();
                }
            }
            kernel(&mut stage[..n]);
            let mut n = 0;
            for row in rows.chunks_exact_mut(stride) {
                for c in cols {
                    row[c.clone()].copy_from_slice(&stage[n..n + c.len()]);
                    n += c.len();
                }
            }
        }
    }

    /// Index of the maximum element of each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                let mut best = 0;
                for (i, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// Clips every element into `[-limit, limit]` (gradient clipping).
    pub fn clip_inplace(&mut self, limit: f32) {
        assert!(limit > 0.0, "clip limit must be positive");
        for a in &mut self.data {
            *a = a.clamp(-limit, limit);
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|a| *a = 0.0);
    }

    /// Stacks matrices vertically. All inputs must have the same width.
    pub fn vstack(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "vstack: no inputs");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "vstack: width mismatch");
            data.extend_from_slice(&p.data);
        }
        Matrix { rows, cols, data }
    }

    /// Concatenates matrices horizontally. All inputs must have the same height.
    pub fn hstack(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hstack: no inputs");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut off = 0;
            for p in parts {
                assert_eq!(p.rows, rows, "hstack: height mismatch");
                out.data[r * cols + off..r * cols + off + p.cols].copy_from_slice(p.row(r));
                off += p.cols;
            }
        }
        out
    }

    /// True when any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|a| !a.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_and_accessors() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_length_mismatch_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let i = Matrix::identity(4);
        assert_eq!(a.matmul(&i).as_slice(), a.as_slice());
        assert_eq!(i.matmul(&a).as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 2, |r, c| (r + 2 * c) as f32 * 0.5);
        let b = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.25);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        assert_eq!(fast.as_slice(), slow.as_slice());
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 2, |r, c| (r + 2 * c) as f32 * 0.5);
        let b = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32 * 0.25);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        assert_eq!(fast.as_slice(), slow.as_slice());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 31 + c * 7) as f32);
        assert_eq!(a.transpose().transpose().as_slice(), a.as_slice());
    }

    #[test]
    fn softmax_rows_sum_to_one_and_preserve_argmax() {
        let mut m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 5.0, 0.0]);
        let argmax_before = m.argmax_rows();
        m.softmax_rows_inplace();
        for r in 0..2 {
            let s: f32 = m.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {} sums to {}", r, s);
        }
        assert_eq!(m.argmax_rows(), argmax_before);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let mut m = Matrix::from_vec(1, 3, vec![1000.0, 1001.0, 999.0]);
        m.softmax_rows_inplace();
        assert!(!m.has_non_finite());
        assert_eq!(m.argmax_rows(), vec![1]);
    }

    #[test]
    fn broadcast_and_sum_rows_are_inverse_shapes() {
        let mut m = Matrix::zeros(3, 4);
        m.add_row_broadcast(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.sum_rows(), vec![3.0, 6.0, 9.0, 12.0]);
    }

    #[test]
    fn hstack_vstack_shapes_and_content() {
        let a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 3, 2.0);
        let h = Matrix::hstack(&[&a, &b]);
        assert_eq!(h.shape(), (2, 5));
        assert_eq!(h.row(0), &[1.0, 1.0, 2.0, 2.0, 2.0]);
        let c = Matrix::filled(1, 5, 3.0);
        let v = Matrix::vstack(&[&h, &c]);
        assert_eq!(v.shape(), (3, 5));
        assert_eq!(v.row(2), &[3.0; 5]);
    }

    #[test]
    fn gather_rows_picks_requested_rows() {
        let m = Matrix::from_fn(5, 2, |r, c| (r * 2 + c) as f32);
        let g = m.gather_rows(&[4, 0, 2]);
        assert_eq!(g.row(0), m.row(4));
        assert_eq!(g.row(1), m.row(0));
        assert_eq!(g.row(2), m.row(2));
    }

    #[test]
    fn clip_bounds_all_elements() {
        let mut m = Matrix::from_vec(1, 4, vec![-10.0, -0.5, 0.5, 10.0]);
        m.clip_inplace(1.0);
        assert_eq!(m.as_slice(), &[-1.0, -0.5, 0.5, 1.0]);
    }

    #[test]
    fn scaled_add_assign_axpy() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.scaled_add_assign(0.5, &b);
        assert_eq!(a.as_slice(), &[2.0; 4]);
    }

    #[test]
    fn has_non_finite_detects_nan() {
        let mut m = Matrix::zeros(1, 2);
        assert!(!m.has_non_finite());
        m.set(0, 1, f32::NAN);
        assert!(m.has_non_finite());
    }

    #[test]
    fn reset_reshapes_and_reuses_allocation() {
        let mut m = Matrix::zeros(3, 4);
        m.reset(2, 6);
        assert_eq!(m.shape(), (2, 6));
        assert_eq!(m.as_slice().len(), 12);
        m.reset(1, 3);
        assert_eq!(m.shape(), (1, 3));
        assert_eq!(m.as_slice().len(), 3);
    }

    #[test]
    fn copy_from_duplicates_contents() {
        let src = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let mut dst = Matrix::zeros(1, 1);
        dst.copy_from(&src);
        assert_eq!(dst.shape(), src.shape());
        assert_eq!(dst.as_slice(), src.as_slice());
    }

    #[test]
    fn into_kernels_match_allocating_variants() {
        let a = Matrix::from_fn(4, 5, |r, c| ((r * 5 + c) as f32 * 0.37).sin());
        let b = Matrix::from_fn(5, 3, |r, c| ((r * 3 + c) as f32 * 0.53).cos());
        let c = Matrix::from_fn(4, 5, |r, c| ((r + c) as f32 * 0.11).tan());

        let mut out = Matrix::zeros(9, 9); // wrong shape on purpose
        a.matmul_into(&b, &mut out);
        assert_eq!(out.as_slice(), a.matmul(&b).as_slice());

        a.matmul_tn_into(&c, &mut out);
        assert_eq!(out.as_slice(), a.matmul_tn(&c).as_slice());

        a.matmul_nt_into(&c, &mut out);
        assert_eq!(out.as_slice(), a.matmul_nt(&c).as_slice());

        a.transpose_into(&mut out);
        assert_eq!(out.as_slice(), a.transpose().as_slice());
    }

    #[test]
    fn acc_kernels_accumulate_on_top() {
        let a = Matrix::from_fn(3, 7, |r, c| (r as f32 - c as f32) * 0.25);
        let b = Matrix::from_fn(7, 2, |r, c| (r + c) as f32 * 0.1);
        let mut out = Matrix::filled(3, 2, 1.0);
        a.matmul_acc(&b, &mut out);
        let expect = a.matmul(&b);
        for (o, e) in out.as_slice().iter().zip(expect.as_slice().iter()) {
            assert!((o - (e + 1.0)).abs() < 1e-6);
        }
    }

    #[test]
    fn unrolled_matmul_handles_odd_inner_dims() {
        // Inner dims that exercise the unroll remainder paths (1, 2, 3, 5).
        for k in [1usize, 2, 3, 5, 9] {
            let a = Matrix::from_fn(3, k, |r, c| ((r * k + c) as f32 * 0.3).sin());
            let b = Matrix::from_fn(k, 4, |r, c| ((r * 4 + c) as f32 * 0.7).cos());
            let mut manual = Matrix::zeros(3, 4);
            for i in 0..3 {
                for j in 0..4 {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc += a.get(i, kk) * b.get(kk, j);
                    }
                    manual.set(i, j, acc);
                }
            }
            let fast = a.matmul(&b);
            for (f, m) in fast.as_slice().iter().zip(manual.as_slice().iter()) {
                assert!((f - m).abs() < 1e-5, "k={k}: {f} vs {m}");
            }
            // Odd row counts exercise the tn remainder row.
            let tn = a.matmul_tn(&a);
            let tn_ref = a.transpose().matmul(&a);
            for (f, m) in tn.as_slice().iter().zip(tn_ref.as_slice().iter()) {
                assert!((f - m).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn add_scaled_into_matches_axpy() {
        let a = Matrix::filled(2, 3, 1.0);
        let b = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        let mut out = Matrix::zeros(1, 1);
        a.add_scaled_into(2.0, &b, &mut out);
        assert_eq!(out.shape(), (2, 3));
        assert_eq!(out.as_slice(), &[1.0, 3.0, 5.0, 7.0, 9.0, 11.0]);
    }

    #[test]
    fn gather_rows_into_and_scatter_add_roundtrip() {
        let m = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32);
        let mut g = Matrix::zeros(0, 0);
        m.gather_rows_into(&[4, 0, 4], &mut g);
        assert_eq!(g.shape(), (3, 3));
        assert_eq!(g.row(0), m.row(4));
        assert_eq!(g.row(2), m.row(4));

        let mut acc = Matrix::zeros(5, 3);
        acc.scatter_add_rows(&[4, 0, 4], &g);
        // Row 4 received itself twice, row 0 once.
        for c in 0..3 {
            assert_eq!(acc.get(4, c), 2.0 * m.get(4, c));
            assert_eq!(acc.get(0, c), m.get(0, c));
            assert_eq!(acc.get(1, c), 0.0);
        }
    }

    #[test]
    fn sum_rows_acc_accumulates() {
        let m = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let mut out = Matrix::zeros(1, 2);
        m.sum_rows_acc(&mut out);
        assert_eq!(out.as_slice(), &[6.0, 9.0]);
        m.sum_rows_acc(&mut out);
        assert_eq!(out.as_slice(), &[12.0, 18.0]);
        let mut fresh = Matrix::zeros(4, 4);
        m.sum_rows_into(&mut fresh);
        assert_eq!(fresh.shape(), (1, 2));
        assert_eq!(fresh.as_slice(), &[6.0, 9.0]);
    }
}
