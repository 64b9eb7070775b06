//! A batched LSTM layer with full back-propagation through time — the
//! paper's [`RecurrentCell`].
//!
//! Gate layout follows the classic formulation (Hochreiter & Schmidhuber
//! 1997): for input `x_t` (`B x I`) and previous hidden state `h_{t-1}`
//! (`B x H`),
//!
//! ```text
//! z = x_t Wx + h_{t-1} Wh + b              (B x 4H, gate order [i f g o])
//! i = sigmoid(z_i)   f = sigmoid(z_f)
//! g = tanh(z_g)      o = sigmoid(z_o)
//! c_t = f * c_{t-1} + i * g
//! h_t = o * tanh(c_t)
//! ```
//!
//! The forget-gate bias is initialized to 1.0, the standard trick that
//! lets gradients flow early in training.

use crate::model::{hidden_product, record_h_prev, RecurrentCell};
use crate::Trainable;
use nfv_tensor::{act, xavier_uniform, Matrix, Workspace};
use rand::Rng;
use std::mem;

/// One LSTM layer: parameters `Wx` (`I x 4H`), `Wh` (`H x 4H`), `b` (`1 x 4H`).
#[derive(Debug, Clone)]
pub struct LstmLayer {
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
    /// Cell state entering this step (`B x H`).
    c_prev: Matrix,
    /// Activated gates `[i f g o]` (`B x 4H`).
    gates: Matrix,
    /// `tanh(c_t)` (`B x H`).
    tanh_c: Matrix,
}

/// Cache for a whole sequence, filled by a recording
/// [`RecurrentCell::forward_seq_into`]. Reusable across training steps:
/// buffers are reshaped in place rather than reallocated.
#[derive(Debug, Clone, Default)]
pub struct LstmSeqCache {
    steps: Vec<StepCache>,
}

impl LstmSeqCache {
    /// Shapes every buffer for a `t_len`-step sequence.
    fn ensure(&mut self, t_len: usize, batch: usize, input: usize, hidden: usize) {
        self.steps.truncate(t_len);
        self.steps.resize_with(t_len, StepCache::default);
        for step in &mut self.steps {
            step.x.reset(batch, input);
            step.h_prev.reset(batch, hidden);
            step.c_prev.reset(batch, hidden);
            step.gates.reset(batch, 4 * hidden);
            step.tanh_c.reset(batch, hidden);
        }
    }
}

impl LstmLayer {
    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.wx.rows()
    }
}

impl RecurrentCell for LstmLayer {
    type Cache = LstmSeqCache;
    const TAG: &'static str = "sequence-model";
    const DETECTOR: &'static str = "lstm";

    /// New layer with Xavier-initialized weights, zero bias, and the
    /// forget-gate bias set to 1.0.
    fn new(input: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        let mut b = Matrix::zeros(1, 4 * hidden);
        for c in hidden..2 * hidden {
            b.set(0, c, 1.0);
        }
        LstmLayer {
            wx: xavier_uniform(input, 4 * hidden, rng),
            wh: xavier_uniform(hidden, 4 * hidden, rng),
            b,
            hidden,
        }
    }

    fn forward_seq_into(
        &self,
        xs: &[Matrix],
        outs: &mut Vec<Matrix>,
        mut cache: Option<&mut LstmSeqCache>,
        ws: &mut Workspace,
    ) {
        assert!(!xs.is_empty(), "forward_seq: empty sequence");
        let batch = xs[0].rows();
        let hd = self.hidden;
        ws.ensure_seq(outs, xs.len(), batch, hd);
        if let Some(cache) = cache.as_deref_mut() {
            cache.ensure(xs.len(), batch, self.input_dim(), hd);
        }
        // The running cell state and `h_prev * Wh`; without a cache, one
        // gate and one `tanh c` buffer serve every step.
        let mut c = ws.take_zeroed(batch, hd);
        let mut zh = ws.take(batch, 4 * hd);
        let mut step_bufs = cache.is_none().then(|| [ws.take(batch, 4 * hd), ws.take(batch, hd)]);
        let wh_finite = !self.wh.has_non_finite();
        for (t, x) in xs.iter().enumerate() {
            assert_eq!(x.cols(), self.input_dim(), "LstmLayer: input width mismatch");
            assert_eq!(x.rows(), batch, "LstmLayer: ragged batch");
            let (done, rest) = outs.split_at_mut(t);
            let out = &mut rest[0];
            let (gates, tanh_c) = match cache.as_deref_mut() {
                Some(cache) => {
                    let StepCache { x: sx, h_prev, c_prev, gates, tanh_c } = &mut cache.steps[t];
                    sx.copy_from(x);
                    record_h_prev(h_prev, done);
                    c_prev.copy_from(&c);
                    (gates, tanh_c)
                }
                None => {
                    let [gates, tanh_c] = step_bufs.as_mut().expect("unrecorded step buffers");
                    (gates, tanh_c)
                }
            };

            x.matmul_into(&self.wx, gates);
            hidden_product(done, &self.wh, wh_finite, &mut zh, ws);
            gates.add_assign(&zh);
            gates.add_row_broadcast(self.b.row(0));

            // Activate the gates in place, the whole batch per kernel call:
            // sigmoid on [i f] and o, tanh on g.
            let (i_f, g, o) = (0..2 * hd, 2 * hd..3 * hd, 3 * hd..4 * hd);
            gates.apply_cols(act::sigmoid_inplace, &[i_f, o]);
            gates.apply_cols(act::tanh_inplace, &[g]);

            // c = f·c + i·g, then h = o·tanh c, as zipped row slices.
            for r in 0..batch {
                let g_row = gates.row(r);
                let (i, f, g) = (&g_row[..hd], &g_row[hd..2 * hd], &g_row[2 * hd..3 * hd]);
                for (((c, &i), &f), &g) in c.row_mut(r).iter_mut().zip(i).zip(f).zip(g) {
                    *c = f * *c + i * g;
                }
            }
            tanh_c.copy_from(&c);
            act::tanh_inplace(tanh_c.as_mut_slice());
            for r in 0..batch {
                let o = &gates.row(r)[3 * hd..];
                for ((h, &o), &tc) in out.row_mut(r).iter_mut().zip(o).zip(tanh_c.row(r)) {
                    *h = o * tc;
                }
            }
        }
        for buf in [c, zh].into_iter().chain(step_bufs.into_iter().flatten()) {
            ws.recycle(buf);
        }
    }

    fn backward_seq_into(
        &self,
        cache: &LstmSeqCache,
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
        let mut dz = ws.take(batch, 4 * hd);
        let mut dc_prev = ws.take(batch, hd);
        let mut dh_next = ws.take_zeroed(batch, hd);
        let mut dc_next = ws.take_zeroed(batch, hd);
        let mut tmp_wx = ws.take(input, 4 * hd);
        let mut tmp_wh = ws.take(hd, 4 * hd);
        let mut tmp_db = ws.take(1, 4 * hd);
        // Transpose the weights once so the per-step input/hidden
        // gradients become plain matmuls over contiguous rows.
        let mut wx_t = ws.take(4 * hd, input);
        let mut wh_t = ws.take(4 * hd, hd);
        self.wx.transpose_into(&mut wx_t);
        self.wh.transpose_into(&mut wh_t);

        for t in (0..t_len).rev() {
            let step = &cache.steps[t];
            // Total gradient reaching h_t.
            dh.copy_from(&d_hs[t]);
            dh.add_assign(&dh_next);

            // Per-element gate gradients -> pre-activation gradients dz.
            // Every element of dz and dc_prev is overwritten each step.
            for r in 0..batch {
                let gates = step.gates.row(r);
                for k in 0..hd {
                    let i = gates[k];
                    let f = gates[hd + k];
                    let g = gates[2 * hd + k];
                    let o = gates[3 * hd + k];
                    let tc = step.tanh_c.get(r, k);
                    let dh_v = dh.get(r, k);

                    let do_ = dh_v * tc;
                    let dtc = dh_v * o;
                    let dc = dc_next.get(r, k) + dtc * (1.0 - tc * tc);

                    let di = dc * g;
                    let df = dc * step.c_prev.get(r, k);
                    let dg = dc * i;
                    dc_prev.set(r, k, dc * f);

                    let row = dz.row_mut(r);
                    row[k] = di * i * (1.0 - i);
                    row[hd + k] = df * f * (1.0 - f);
                    row[2 * hd + k] = dg * (1.0 - g * g);
                    row[3 * hd + k] = do_ * o * (1.0 - o);
                }
            }

            step.x.matmul_tn_into(&dz, &mut tmp_wx);
            dwx.add_assign(&tmp_wx);
            step.h_prev.matmul_tn_into(&dz, &mut tmp_wh);
            dwh.add_assign(&tmp_wh);
            dz.sum_rows_into(&mut tmp_db);
            db.add_assign(&tmp_db);

            dz.matmul_into(&wx_t, &mut dxs[t]);
            dz.matmul_into(&wh_t, &mut dh_next);
            mem::swap(&mut dc_next, &mut dc_prev);
        }

        for buf in [dh, dz, dc_prev, dh_next, dc_next, tmp_wx, tmp_wh, tmp_db, wx_t, wh_t] {
            ws.recycle(buf);
        }
    }
}

impl Trainable for LstmLayer {
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
        let layer = LstmLayer::new(3, 4, &mut rng);
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
        // tanh/o-gate keep |h| <= 1 regardless of input magnitude.
        let mut rng = SmallRng::seed_from_u64(2);
        let layer = LstmLayer::new(2, 3, &mut rng);
        let xs: Vec<Matrix> =
            (0..20).map(|_| nfv_tensor::uniform_in(1, 2, -50.0, 50.0, &mut rng)).collect();
        let (hs, _) = layer.forward_seq(&xs);
        for h in &hs {
            assert!(h.max_abs() <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let mut rng = SmallRng::seed_from_u64(4);
        let layer = LstmLayer::new(2, 3, &mut rng);
        let b = layer.params()[2];
        for k in 0..3 {
            assert_eq!(b.get(0, k), 0.0, "input-gate bias");
            assert_eq!(b.get(0, 3 + k), 1.0, "forget-gate bias");
            assert_eq!(b.get(0, 6 + k), 0.0, "cell-gate bias");
            assert_eq!(b.get(0, 9 + k), 0.0, "output-gate bias");
        }
    }
}
