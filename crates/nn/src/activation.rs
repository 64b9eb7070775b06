//! Pointwise activation functions and their derivatives. The sigmoid
//! and tanh values come from [`nfv_tensor::act`]: its scalar reference
//! per element, its slice kernels per matrix.

use nfv_tensor::{act, Matrix};

pub use nfv_tensor::act::sigmoid;

/// Supported pointwise activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// `f(x) = x`.
    Identity,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit.
    Relu,
}

impl Activation {
    /// Applies the activation to a scalar.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Sigmoid => act::sigmoid(x),
            Activation::Tanh => act::tanh(x),
            Activation::Relu => x.max(0.0),
        }
    }

    /// Derivative expressed in terms of the *activated output* `y = f(x)`.
    ///
    /// All four supported activations admit this form, which lets the
    /// backward passes avoid caching pre-activation values.
    #[inline]
    pub fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Applies the activation elementwise in place.
    pub fn apply_inplace(self, m: &mut Matrix) {
        match self {
            Activation::Identity => {}
            Activation::Sigmoid => act::sigmoid_inplace(m.as_mut_slice()),
            Activation::Tanh => act::tanh_inplace(m.as_mut_slice()),
            Activation::Relu => m.map_inplace(|x| x.max(0.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_symmetry_and_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(100.0) <= 1.0 && sigmoid(-100.0) >= 0.0);
        assert!(sigmoid(-1000.0).is_finite() && sigmoid(1000.0).is_finite());
    }

    #[test]
    fn derivatives_match_numerical() {
        let eps = 1e-3f32;
        for &act in &[Activation::Identity, Activation::Sigmoid, Activation::Tanh, Activation::Relu]
        {
            for &x in &[-2.0f32, -0.5, 0.3, 1.7] {
                let y = act.apply(x);
                let analytic = act.derivative_from_output(y);
                let numeric = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                assert!(
                    (analytic - numeric).abs() < 1e-2,
                    "{:?} at {}: analytic {} vs numeric {}",
                    act,
                    x,
                    analytic,
                    numeric
                );
            }
        }
    }

    #[test]
    fn apply_inplace_matches_scalar() {
        let mut m = Matrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]);
        Activation::Relu.apply_inplace(&mut m);
        assert_eq!(m.as_slice(), &[0.0, 0.0, 2.0]);
    }
}
