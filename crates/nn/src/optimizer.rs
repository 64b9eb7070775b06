//! First-order optimizers operating on flat lists of parameter matrices.
//!
//! An optimizer is bound to a parameter layout at construction time (one
//! state slot per parameter matrix) and then fed `(params, grads)` pairs
//! in that same stable order on every step. Gradient clipping is applied
//! by the callers before stepping where needed.

use nfv_tensor::Matrix;

/// A first-order gradient-descent optimizer.
pub trait Optimizer {
    /// Applies one update. `params[i]` and `grads[i]` must have identical
    /// shapes and the layout must match the one used at construction.
    /// A `None` gradient marks a frozen parameter that must be skipped
    /// (transfer-learning fine-tuning freezes bottom layers this way).
    fn step(&mut self, params: &mut [&mut Matrix], grads: &[Option<&Matrix>]);
}

/// Plain stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Matrix>,
}

impl Sgd {
    /// SGD over parameters shaped like `shapes`, with `momentum == 0.0`
    /// giving vanilla SGD.
    pub fn new(lr: f32, momentum: f32, shapes: &[(usize, usize)]) -> Self {
        assert!(lr > 0.0, "Sgd: learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "Sgd: momentum must be in [0, 1)");
        Sgd { lr, momentum, velocity: shapes.iter().map(|&(r, c)| Matrix::zeros(r, c)).collect() }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Matrix], grads: &[Option<&Matrix>]) {
        assert_eq!(params.len(), self.velocity.len(), "Sgd: layout mismatch");
        assert_eq!(params.len(), grads.len(), "Sgd: grads length mismatch");
        for (i, ((p, g), v)) in
            params.iter_mut().zip(grads.iter()).zip(self.velocity.iter_mut()).enumerate()
        {
            let Some(g) = g else { continue };
            assert_eq!(
                p.shape(),
                g.shape(),
                "Sgd: param {} shape {:?} does not match grad shape {:?}",
                i,
                p.shape(),
                g.shape()
            );
            if self.momentum > 0.0 {
                v.scale(self.momentum);
                v.scaled_add_assign(-self.lr, g);
                p.add_assign(v);
            } else {
                p.scaled_add_assign(-self.lr, g);
            }
        }
    }
}

/// Adam (Kingma & Ba 2015) with bias correction.
///
/// The step counter is tracked *per parameter*: a frozen parameter
/// (fed a `None` gradient) keeps both its moment estimates and its
/// bias-correction clock untouched, so unfreezing it later behaves like
/// a fresh warm start instead of resuming a stale, over-corrected state.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: Vec<u64>,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Adam with the standard defaults `beta1 = 0.9`, `beta2 = 0.999`,
    /// `eps = 1e-8`.
    pub fn new(lr: f32, shapes: &[(usize, usize)]) -> Self {
        assert!(lr > 0.0, "Adam: learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: vec![0; shapes.len()],
            m: shapes.iter().map(|&(r, c)| Matrix::zeros(r, c)).collect(),
            v: shapes.iter().map(|&(r, c)| Matrix::zeros(r, c)).collect(),
        }
    }

    /// Number of steps applied so far (to the most-updated parameter).
    pub fn steps(&self) -> u64 {
        self.t.iter().copied().max().unwrap_or(0)
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Matrix], grads: &[Option<&Matrix>]) {
        assert_eq!(params.len(), self.m.len(), "Adam: layout mismatch");
        assert_eq!(params.len(), grads.len(), "Adam: grads length mismatch");
        for (i, (p, g)) in params.iter_mut().zip(grads.iter()).enumerate() {
            let Some(g) = g else { continue };
            assert_eq!(
                p.shape(),
                g.shape(),
                "Adam: param {} shape {:?} does not match grad shape {:?}",
                i,
                p.shape(),
                g.shape()
            );
            self.t[i] += 1;
            let bc1 = 1.0 - self.beta1.powi(self.t[i] as i32);
            let bc2 = 1.0 - self.beta2.powi(self.t[i] as i32);
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for ((pk, &gk), (mk, vk)) in p
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice().iter())
                .zip(m.as_mut_slice().iter_mut().zip(v.as_mut_slice().iter_mut()))
            {
                *mk = self.beta1 * *mk + (1.0 - self.beta1) * gk;
                *vk = self.beta2 * *vk + (1.0 - self.beta2) * gk * gk;
                let m_hat = *mk / bc1;
                let v_hat = *vk / bc2;
                *pk -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(x) = 0.5*(x - target)^2 with gradient (x - target).
    fn run_quadratic(opt: &mut dyn Optimizer, start: f32, target: f32, iters: usize) -> f32 {
        let mut x = Matrix::filled(1, 1, start);
        for _ in 0..iters {
            let g = Matrix::filled(1, 1, x.get(0, 0) - target);
            opt.step(&mut [&mut x], &[Some(&g)]);
        }
        x.get(0, 0)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1, 0.0, &[(1, 1)]);
        let x = run_quadratic(&mut opt, 10.0, 3.0, 200);
        assert!((x - 3.0).abs() < 1e-3, "got {}", x);
    }

    #[test]
    fn momentum_converges_faster_than_plain_sgd() {
        let mut plain = Sgd::new(0.01, 0.0, &[(1, 1)]);
        let mut mom = Sgd::new(0.01, 0.9, &[(1, 1)]);
        let x_plain = run_quadratic(&mut plain, 10.0, 0.0, 50);
        let x_mom = run_quadratic(&mut mom, 10.0, 0.0, 50);
        assert!(x_mom.abs() < x_plain.abs());
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.3, &[(1, 1)]);
        let x = run_quadratic(&mut opt, 10.0, -2.0, 300);
        assert!((x + 2.0).abs() < 1e-2, "got {}", x);
    }

    #[test]
    fn adam_first_step_magnitude_is_lr() {
        // With bias correction the very first Adam update is ~lr * sign(g).
        let mut opt = Adam::new(0.5, &[(1, 1)]);
        let mut x = Matrix::filled(1, 1, 0.0);
        let g = Matrix::filled(1, 1, 123.0);
        opt.step(&mut [&mut x], &[Some(&g)]);
        assert!((x.get(0, 0) + 0.5).abs() < 1e-3, "got {}", x.get(0, 0));
    }

    #[test]
    fn frozen_params_are_skipped() {
        let mut opt = Sgd::new(0.5, 0.0, &[(1, 1), (1, 1)]);
        let mut a = Matrix::filled(1, 1, 1.0);
        let mut b = Matrix::filled(1, 1, 1.0);
        let g = Matrix::filled(1, 1, 1.0);
        opt.step(&mut [&mut a, &mut b], &[None, Some(&g)]);
        assert_eq!(a.get(0, 0), 1.0, "frozen parameter must not move");
        assert_eq!(b.get(0, 0), 0.5);
    }

    #[test]
    #[should_panic(expected = "layout mismatch")]
    fn layout_mismatch_panics() {
        let mut opt = Sgd::new(0.1, 0.0, &[(1, 1)]);
        let mut a = Matrix::zeros(1, 1);
        let mut b = Matrix::zeros(1, 1);
        let g = Matrix::zeros(1, 1);
        opt.step(&mut [&mut a, &mut b], &[Some(&g), Some(&g)]);
    }

    #[test]
    #[should_panic(expected = "param 1 shape")]
    fn shape_mismatch_reports_parameter_index() {
        let mut opt = Adam::new(0.1, &[(1, 1), (2, 2)]);
        let mut a = Matrix::zeros(1, 1);
        let mut b = Matrix::zeros(2, 2);
        let ga = Matrix::zeros(1, 1);
        let gb = Matrix::zeros(2, 3); // wrong shape for param 1
        opt.step(&mut [&mut a, &mut b], &[Some(&ga), Some(&gb)]);
    }

    #[test]
    fn adam_does_not_advance_state_for_frozen_params() {
        // Freeze param 0 for many steps, then unfreeze it: its very first
        // real update must have first-step magnitude (~lr), proving the
        // bias-correction clock and moments did not advance while frozen.
        let mut opt = Adam::new(0.5, &[(1, 1), (1, 1)]);
        let mut a = Matrix::filled(1, 1, 0.0);
        let mut b = Matrix::filled(1, 1, 0.0);
        let g = Matrix::filled(1, 1, 42.0);
        for _ in 0..25 {
            opt.step(&mut [&mut a, &mut b], &[None, Some(&g)]);
        }
        assert_eq!(a.get(0, 0), 0.0, "frozen parameter must stay bit-identical");
        assert_eq!(opt.steps(), 25);
        opt.step(&mut [&mut a, &mut b], &[Some(&g), Some(&g)]);
        assert!(
            (a.get(0, 0) + 0.5).abs() < 1e-3,
            "first unfrozen update should be ~lr, got {}",
            a.get(0, 0)
        );
    }
}
