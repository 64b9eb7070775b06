//! Fully-connected layer with explicit forward/backward passes.

use crate::activation::Activation;
use crate::Trainable;
use nfv_tensor::{xavier_uniform, Matrix, Workspace};
use rand::Rng;

/// A fully-connected layer `y = act(x W + b)`.
///
/// Weights are stored input-major (`in_dim x out_dim`) so a batch `x`
/// of shape `B x in_dim` produces `B x out_dim` via a single matmul.
/// The bias is kept as a `1 x out_dim` matrix so that optimizers can treat
/// every parameter uniformly.
#[derive(Debug, Clone)]
pub struct Dense {
    w: Matrix,
    b: Matrix,
    activation: Activation,
}

/// Values captured during [`Dense::forward`] that the backward pass needs.
/// Reusable across steps: [`Dense::forward_into`] reshapes the buffers in
/// place instead of reallocating.
#[derive(Debug, Clone, Default)]
pub struct DenseCache {
    /// The layer input (`B x in_dim`).
    x: Matrix,
    /// The activated output (`B x out_dim`).
    y: Matrix,
}

impl DenseCache {
    /// The activated output of the captured forward pass.
    pub fn output(&self) -> &Matrix {
        &self.y
    }
}

/// Parameter gradients produced by [`Dense::backward`], in the same order
/// as [`Dense::params`].
#[derive(Debug, Clone)]
pub struct DenseGrads {
    /// Gradient w.r.t. the weight matrix.
    pub dw: Matrix,
    /// Gradient w.r.t. the bias row.
    pub db: Matrix,
}

impl Dense {
    /// New layer with Xavier-initialized weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut impl Rng) -> Self {
        Dense { w: xavier_uniform(in_dim, out_dim, rng), b: Matrix::zeros(1, out_dim), activation }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Forward pass over a batch; returns the output and the cache needed
    /// by [`Dense::backward`].
    pub fn forward(&self, x: &Matrix) -> (Matrix, DenseCache) {
        let mut cache = DenseCache::default();
        self.forward_into(x, &mut cache);
        (cache.y.clone(), cache)
    }

    /// Allocation-free forward pass writing into a reusable cache; the
    /// output lives at `cache.output()`.
    pub fn forward_into(&self, x: &Matrix, cache: &mut DenseCache) {
        assert_eq!(
            x.cols(),
            self.in_dim(),
            "Dense::forward: input width {} != layer in_dim {}",
            x.cols(),
            self.in_dim()
        );
        cache.x.copy_from(x);
        self.infer_into(x, &mut cache.y);
    }

    /// Inference-only forward pass (no cache).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut y = Matrix::default();
        self.infer_into(x, &mut y);
        y
    }

    /// Allocation-free inference forward pass: writes the activated
    /// output into `y` and records nothing for a backward pass.
    pub fn infer_into(&self, x: &Matrix, y: &mut Matrix) {
        x.matmul_into(&self.w, y);
        y.add_row_broadcast(self.b.row(0));
        self.activation.apply_inplace(y);
    }

    /// Backward pass: given `d_out = dL/dy`, returns `dL/dx` and the
    /// parameter gradients.
    pub fn backward(&self, cache: &DenseCache, d_out: &Matrix) -> (Matrix, DenseGrads) {
        let mut ws = Workspace::new();
        let mut dx = Matrix::default();
        let mut dw = Matrix::zeros(self.w.rows(), self.w.cols());
        let mut db = Matrix::zeros(1, self.out_dim());
        self.backward_into(cache, d_out, &mut dx, &mut dw, &mut db, &mut ws);
        (dx, DenseGrads { dw, db })
    }

    /// Allocation-free backward pass. Writes `dL/dx` into `dx` and
    /// *accumulates* the parameter gradients into `dw`/`db` (callers zero
    /// them once per batch, not per layer invocation).
    pub fn backward_into(
        &self,
        cache: &DenseCache,
        d_out: &Matrix,
        dx: &mut Matrix,
        dw: &mut Matrix,
        db: &mut Matrix,
        ws: &mut Workspace,
    ) {
        assert_eq!(d_out.shape(), cache.y.shape(), "Dense::backward: shape mismatch");
        assert_eq!(dw.shape(), self.w.shape(), "Dense::backward: dw shape mismatch");
        assert_eq!(db.shape(), self.b.shape(), "Dense::backward: db shape mismatch");
        // dL/dz where z is the pre-activation, using f'(z) expressed via y.
        let mut dz = ws.take(d_out.rows(), d_out.cols());
        dz.copy_from(d_out);
        if self.activation != Activation::Identity {
            for (d, &y) in dz.as_mut_slice().iter_mut().zip(cache.y.as_slice().iter()) {
                *d *= self.activation.derivative_from_output(y);
            }
        }
        cache.x.matmul_tn_acc(&dz, dw);
        dz.sum_rows_acc(db);
        let mut wt = ws.take(self.w.cols(), self.w.rows());
        self.w.transpose_into(&mut wt);
        dz.matmul_into(&wt, dx);
        ws.recycle(dz);
        ws.recycle(wt);
    }
}

impl Trainable for Dense {
    fn params(&self) -> Vec<&Matrix> {
        vec![&self.w, &self.b]
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.w, &mut self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};

    fn scalar_loss(y: &Matrix) -> f32 {
        // Simple quadratic loss so that dL/dy = y.
        0.5 * y.as_slice().iter().map(|v| v * v).sum::<f32>()
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut layer = Dense::new(3, 2, Activation::Identity, &mut rng);
        // Zero the weights; output should equal the bias.
        layer.params_mut()[0].fill_zero();
        layer.params_mut()[1].set_row(0, &[1.5, -2.5]);
        let x = Matrix::filled(4, 3, 1.0);
        let (y, _) = layer.forward(&x);
        assert_eq!(y.shape(), (4, 2));
        for r in 0..4 {
            assert_eq!(y.row(r), &[1.5, -2.5]);
        }
    }

    #[test]
    fn gradient_check_weights_and_bias() {
        for &act in &[Activation::Identity, Activation::Tanh, Activation::Sigmoid] {
            let mut rng = SmallRng::seed_from_u64(3);
            let mut layer = Dense::new(4, 3, act, &mut rng);
            let x = nfv_tensor::uniform_in(5, 4, -1.0, 1.0, &mut rng);

            let (y, cache) = layer.forward(&x);
            let d_out = y.clone(); // dL/dy for L = 0.5*||y||^2
            let (_, grads) = layer.backward(&cache, &d_out);

            let eps = 1e-2f32;
            // Check a sample of weight entries numerically.
            for &(pi, idx) in &[(0usize, 0usize), (0, 5), (0, 11), (1, 0), (1, 2)] {
                let analytic =
                    if pi == 0 { grads.dw.as_slice()[idx] } else { grads.db.as_slice()[idx] };
                let orig = layer.params()[pi].as_slice()[idx];
                layer.params_mut()[pi].as_mut_slice()[idx] = orig + eps;
                let plus = scalar_loss(&layer.forward(&x).0);
                layer.params_mut()[pi].as_mut_slice()[idx] = orig - eps;
                let minus = scalar_loss(&layer.forward(&x).0);
                layer.params_mut()[pi].as_mut_slice()[idx] = orig;
                let numeric = (plus - minus) / (2.0 * eps);
                assert!(
                    (analytic - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                    "{:?} param {} idx {}: analytic {} vs numeric {}",
                    act,
                    pi,
                    idx,
                    analytic,
                    numeric
                );
            }
        }
    }

    #[test]
    fn gradient_check_input() {
        let mut rng = SmallRng::seed_from_u64(9);
        let layer = Dense::new(3, 2, Activation::Tanh, &mut rng);
        let mut x = nfv_tensor::uniform_in(2, 3, -1.0, 1.0, &mut rng);
        let (y, cache) = layer.forward(&x);
        let (dx, _) = layer.backward(&cache, &y);

        let eps = 1e-2f32;
        for idx in 0..x.as_slice().len() {
            let orig = x.as_slice()[idx];
            x.as_mut_slice()[idx] = orig + eps;
            let plus = scalar_loss(&layer.forward(&x).0);
            x.as_mut_slice()[idx] = orig - eps;
            let minus = scalar_loss(&layer.forward(&x).0);
            x.as_mut_slice()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = dx.as_slice()[idx];
            assert!(
                (analytic - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "input idx {}: analytic {} vs numeric {}",
                idx,
                analytic,
                numeric
            );
        }
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = SmallRng::seed_from_u64(5);
        let layer = Dense::new(6, 4, Activation::Relu, &mut rng);
        let x = nfv_tensor::uniform_in(3, 6, -2.0, 2.0, &mut rng);
        let (y, _) = layer.forward(&x);
        assert_eq!(layer.infer(&x).as_slice(), y.as_slice());
    }
}
