//! A batched GRU layer with full back-propagation through time — the
//! second [`RecurrentCell`] the next-template sequence model stacks.
//!
//! Gate layout follows Cho et al. 2014: for input `x_t` (`B x I`) and
//! previous hidden state `h_{t-1}` (`B x H`),
//!
//! ```text
//! zx = x_t Wx + b            (B x 3H, gate order [r z n])
//! zh = h_{t-1} Wh            (B x 3H)
//! r = sigmoid(zx_r + zh_r)   (reset gate)
//! z = sigmoid(zx_z + zh_z)   (update gate)
//! n = tanh(zx_n + r * zh_n)  (candidate state)
//! h_t = (1 - z) * n + z * h_{t-1}
//! ```
//!
//! The reset gate multiplies the *hidden contribution* `zh_n` (the
//! "v3"/CuDNN formulation), which keeps the whole step at two GEMMs and
//! makes `zh_n` the only extra value the backward pass needs cached.
//! Three parameter matrices per layer instead of the LSTM's four gates
//! means ~25% fewer weights at the same hidden width.

use crate::model::{hidden_product, record_h_prev, RecurrentCell};
use crate::Trainable;
use nfv_tensor::{act, xavier_uniform, Matrix, Workspace};
use rand::Rng;

/// One GRU layer: parameters `Wx` (`I x 3H`), `Wh` (`H x 3H`), `b` (`1 x 3H`).
#[derive(Debug, Clone)]
pub struct GruLayer {
    wx: Matrix,
    wh: Matrix,
    b: Matrix,
    hidden: usize,
}

/// Per-timestep values cached by the forward pass for BPTT.
#[derive(Debug, Clone, Default)]
struct StepCache {
    /// Layer input at this step (`B x I`).
    x: Matrix,
    /// Hidden state entering this step (`B x H`).
    h_prev: Matrix,
    /// Activated gates `[r z n]` (`B x 3H`).
    gates: Matrix,
    /// Hidden contribution to the candidate, `zh_n` before the reset
    /// gate multiplies it (`B x H`).
    hn: Matrix,
}

/// Cache for a whole sequence, filled by a recording
/// [`RecurrentCell::forward_seq_into`]. Reusable across training steps:
/// buffers are reshaped in place rather than reallocated.
#[derive(Debug, Clone, Default)]
pub struct GruSeqCache {
    steps: Vec<StepCache>,
}

impl GruSeqCache {
    /// Shapes every buffer for a `t_len`-step sequence.
    fn ensure(&mut self, t_len: usize, batch: usize, input: usize, hidden: usize) {
        self.steps.truncate(t_len);
        self.steps.resize_with(t_len, StepCache::default);
        for step in &mut self.steps {
            step.x.reset(batch, input);
            step.h_prev.reset(batch, hidden);
            step.gates.reset(batch, 3 * hidden);
            step.hn.reset(batch, hidden);
        }
    }
}

impl GruLayer {
    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.wx.rows()
    }
}

impl RecurrentCell for GruLayer {
    type Cache = GruSeqCache;
    const TAG: &'static str = "gru-sequence-model";
    const DETECTOR: &'static str = "gru";

    /// New layer with Xavier-initialized weights and zero bias.
    fn new(input: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        GruLayer {
            wx: xavier_uniform(input, 3 * hidden, rng),
            wh: xavier_uniform(hidden, 3 * hidden, rng),
            b: Matrix::zeros(1, 3 * hidden),
            hidden,
        }
    }

    fn forward_seq_into(
        &self,
        xs: &[Matrix],
        outs: &mut Vec<Matrix>,
        mut cache: Option<&mut GruSeqCache>,
        ws: &mut Workspace,
    ) {
        assert!(!xs.is_empty(), "forward_seq: empty sequence");
        let batch = xs[0].rows();
        let hd = self.hidden;
        ws.ensure_seq(outs, xs.len(), batch, hd);
        if let Some(cache) = cache.as_deref_mut() {
            cache.ensure(xs.len(), batch, self.input_dim(), hd);
        }
        // `h_prev * Wh`; without a cache, one gate buffer serves every
        // step.
        let mut zh = ws.take(batch, 3 * hd);
        let mut gate_buf = cache.is_none().then(|| ws.take(batch, 3 * hd));
        let wh_finite = !self.wh.has_non_finite();
        for (t, x) in xs.iter().enumerate() {
            assert_eq!(x.cols(), self.input_dim(), "GruLayer: input width mismatch");
            assert_eq!(x.rows(), batch, "GruLayer: ragged batch");
            let (done, rest) = outs.split_at_mut(t);
            let out = &mut rest[0];
            let (gates, mut hn) = match cache.as_deref_mut() {
                Some(cache) => {
                    let StepCache { x: sx, h_prev, gates, hn } = &mut cache.steps[t];
                    sx.copy_from(x);
                    record_h_prev(h_prev, done);
                    (gates, Some(hn))
                }
                None => (gate_buf.as_mut().expect("unrecorded step buffer"), None),
            };

            // gates starts as zx = x Wx + b; zh = h_prev Wh stays separate
            // because the reset gate multiplies only its candidate third.
            x.matmul_into(&self.wx, gates);
            gates.add_row_broadcast(self.b.row(0));
            hidden_product(done, &self.wh, wh_finite, &mut zh, ws);

            // Activate in place, the whole batch per kernel call: [r z]
            // from zx + zh, then n from zx_n + r * zh_n, recording the raw
            // zh_n in hn.
            for r in 0..batch {
                for (g, &z) in gates.row_mut(r)[..2 * hd].iter_mut().zip(&zh.row(r)[..2 * hd]) {
                    *g += z;
                }
            }
            let (r_z, n_cols) = (0..2 * hd, 2 * hd..3 * hd);
            gates.apply_cols(act::sigmoid_inplace, &[r_z]);
            for r in 0..batch {
                let (r_gate, z_n) = gates.row_mut(r).split_at_mut(hd);
                let zh_n = &zh.row(r)[2 * hd..];
                for ((n, &rg), &zn) in z_n[hd..].iter_mut().zip(&*r_gate).zip(zh_n) {
                    *n += rg * zn;
                }
                if let Some(hn) = hn.as_deref_mut() {
                    hn.row_mut(r).copy_from_slice(zh_n);
                }
            }
            gates.apply_cols(act::tanh_inplace, &[n_cols]);
            // h = (1 - z)·n + z·h_prev, as zipped row slices. h_prev is
            // zero at t = 0; `z * 0` still carries a NaN z.
            let h_prev = done.last();
            for r in 0..batch {
                let (z, n) = gates.row(r)[hd..].split_at(hd);
                let h = out.row_mut(r).iter_mut().zip(z).zip(n);
                match h_prev {
                    Some(h_prev) => {
                        for (((h, &z), &n), &hp) in h.zip(h_prev.row(r)) {
                            *h = (1.0 - z) * n + z * hp;
                        }
                    }
                    None => {
                        for ((h, &z), &n) in h {
                            *h = (1.0 - z) * n + z * 0.0;
                        }
                    }
                }
            }
        }
        ws.recycle(zh);
        if let Some(buf) = gate_buf {
            ws.recycle(buf);
        }
    }

    fn backward_seq_into(
        &self,
        cache: &GruSeqCache,
        d_hs: &[Matrix],
        dxs: &mut Vec<Matrix>,
        grads: &mut [Matrix],
        ws: &mut Workspace,
    ) {
        assert_eq!(d_hs.len(), cache.steps.len(), "backward_seq: length mismatch");
        let [dwx, dwh, db] = grads else { panic!("backward_seq: expected [dWx, dWh, db]") };
        assert_eq!(dwx.shape(), self.wx.shape(), "backward_seq: dwx shape mismatch");
        assert_eq!(dwh.shape(), self.wh.shape(), "backward_seq: dwh shape mismatch");
        assert_eq!(db.shape(), self.b.shape(), "backward_seq: db shape mismatch");
        let t_len = cache.steps.len();
        let batch = cache.steps[0].x.rows();
        let hd = self.hidden;
        let input = self.input_dim();

        ws.ensure_seq(dxs, t_len, batch, input);
        let mut dh = ws.take(batch, hd);
        let mut dzx = ws.take(batch, 3 * hd);
        let mut dzh = ws.take(batch, 3 * hd);
        let mut dh_next = ws.take_zeroed(batch, hd);
        let mut tmp_wx = ws.take(input, 3 * hd);
        let mut tmp_wh = ws.take(hd, 3 * hd);
        let mut tmp_db = ws.take(1, 3 * hd);
        // Transpose the weights once so the per-step input/hidden
        // gradients become plain matmuls over contiguous rows.
        let mut wx_t = ws.take(3 * hd, input);
        let mut wh_t = ws.take(3 * hd, hd);
        self.wx.transpose_into(&mut wx_t);
        self.wh.transpose_into(&mut wh_t);

        for t in (0..t_len).rev() {
            let step = &cache.steps[t];
            // Total gradient reaching h_t.
            dh.copy_from(&d_hs[t]);
            dh.add_assign(&dh_next);

            // Per-element gate gradients -> pre-activation gradients.
            // Every element of dzx and dzh is overwritten each step.
            for r in 0..batch {
                let gates = step.gates.row(r);
                for k in 0..hd {
                    let rg = gates[k];
                    let zg = gates[hd + k];
                    let n = gates[2 * hd + k];
                    let hn = step.hn.get(r, k);
                    let dh_v = dh.get(r, k);

                    // h = (1-z) n + z h_prev
                    let da_z = dh_v * (step.h_prev.get(r, k) - n) * zg * (1.0 - zg);
                    let dpre_n = dh_v * (1.0 - zg) * (1.0 - n * n);
                    let da_r = dpre_n * hn * rg * (1.0 - rg);

                    let zx_row = dzx.row_mut(r);
                    zx_row[k] = da_r;
                    zx_row[hd + k] = da_z;
                    zx_row[2 * hd + k] = dpre_n;
                    let zh_row = dzh.row_mut(r);
                    zh_row[k] = da_r;
                    zh_row[hd + k] = da_z;
                    zh_row[2 * hd + k] = dpre_n * rg;
                }
            }

            step.x.matmul_tn_into(&dzx, &mut tmp_wx);
            dwx.add_assign(&tmp_wx);
            step.h_prev.matmul_tn_into(&dzh, &mut tmp_wh);
            dwh.add_assign(&tmp_wh);
            dzx.sum_rows_into(&mut tmp_db);
            db.add_assign(&tmp_db);

            dzx.matmul_into(&wx_t, &mut dxs[t]);
            // dh_prev = dzh Wh^T + the direct carry z * dh.
            dzh.matmul_into(&wh_t, &mut dh_next);
            for r in 0..batch {
                let gates = step.gates.row(r);
                for k in 0..hd {
                    let v = dh_next.get(r, k) + dh.get(r, k) * gates[hd + k];
                    dh_next.set(r, k, v);
                }
            }
        }

        for buf in [dh, dzx, dzh, dh_next, tmp_wx, tmp_wh, tmp_db, wx_t, wh_t] {
            ws.recycle(buf);
        }
    }
}

impl Trainable for GruLayer {
    fn params(&self) -> Vec<&Matrix> {
        vec![&self.wx, &self.wh, &self.b]
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.wx, &mut self.wh, &mut self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn forward_shapes_are_finite() {
        let mut rng = SmallRng::seed_from_u64(11);
        let layer = GruLayer::new(3, 4, &mut rng);
        let xs: Vec<Matrix> =
            (0..5).map(|_| nfv_tensor::uniform_in(2, 3, -1.0, 1.0, &mut rng)).collect();
        let (hs, _) = layer.forward_seq(&xs);
        assert_eq!(hs.len(), 5);
        for h in &hs {
            assert_eq!(h.shape(), (2, 4));
            assert!(!h.has_non_finite());
        }
    }

    #[test]
    fn hidden_stays_bounded() {
        // h is a convex combination of tanh outputs: |h| <= 1 always.
        let mut rng = SmallRng::seed_from_u64(2);
        let layer = GruLayer::new(2, 3, &mut rng);
        let xs: Vec<Matrix> =
            (0..20).map(|_| nfv_tensor::uniform_in(1, 2, -50.0, 50.0, &mut rng)).collect();
        let (hs, _) = layer.forward_seq(&xs);
        for h in &hs {
            assert!(h.max_abs() <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn gru_has_fewer_parameters_than_lstm_at_same_width() {
        let mut rng = SmallRng::seed_from_u64(5);
        let gru = GruLayer::new(8, 16, &mut rng);
        let lstm = crate::lstm::LstmLayer::new(8, 16, &mut rng);
        let count = |ps: Vec<&Matrix>| ps.iter().map(|p| p.as_slice().len()).sum::<usize>();
        assert_eq!(count(gru.params()) * 4, count(lstm.params()) * 3);
    }
}
