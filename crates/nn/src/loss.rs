//! Loss functions: softmax cross-entropy (the paper trains the LSTM with
//! categorical cross-entropy) and mean-squared error (autoencoder).

use nfv_tensor::{act, Matrix};

/// Softmax + categorical cross-entropy, fused for numerical stability,
/// over one shard of a mini-batch of `total_rows` rows.
///
/// Given raw logits (`B x V`) and one target class per row, writes
/// `dL/dlogits` of the *whole* batch's mean loss into the reusable
/// `dlogits` buffer (divided by `total_rows`, not by the rows in
/// `logits`) and returns the *unnormalized* loss sum over the shard.
/// Summing the returned values over a batch's shards and dividing once by
/// `total_rows` gives the mean batch loss, and the per-shard gradients add
/// up to the batch's mean gradient, which is what lets the trainer split
/// a batch without changing its scaling. A whole batch is the shard with
/// `total_rows == logits.rows()`.
pub fn softmax_cross_entropy_scaled_into(
    logits: &Matrix,
    targets: &[usize],
    dlogits: &mut Matrix,
    total_rows: usize,
) -> f32 {
    assert_eq!(logits.rows(), targets.len(), "softmax_cross_entropy: batch mismatch");
    assert!(total_rows >= logits.rows(), "softmax_cross_entropy: total smaller than shard");
    dlogits.copy_from(logits);
    dlogits.softmax_rows_inplace();

    let mut loss = 0.0f32;
    for (r, &t) in targets.iter().enumerate() {
        assert!(t < logits.cols(), "target class {} out of range ({})", t, logits.cols());
        loss -= act::ln(dlogits.get(r, t).max(1e-12));
    }

    // dL/dlogits = (softmax - onehot) / total.
    for (r, &t) in targets.iter().enumerate() {
        let v = dlogits.get(r, t);
        dlogits.set(r, t, v - 1.0);
    }
    dlogits.scale(1.0 / total_rows as f32);
    loss
}

/// Mean-squared error over one shard of a mini-batch of `total_rows`
/// rows: writes the gradient of the whole batch's
/// `mean((pred - target)^2)` w.r.t. `pred` into the reusable `grad`
/// buffer (divided by the batch's `total_rows * cols` elements) and
/// returns the *unnormalized* sum of squared errors over the shard. See
/// [`softmax_cross_entropy_scaled_into`] for the sharding contract.
pub fn mse_scaled_into(
    pred: &Matrix,
    target: &Matrix,
    grad: &mut Matrix,
    total_rows: usize,
) -> f32 {
    assert_eq!(pred.shape(), target.shape(), "mse: shape mismatch");
    assert!(total_rows >= pred.rows(), "mse: total smaller than shard");
    let n = (total_rows * pred.cols()) as f32;
    grad.copy_from(pred);
    grad.sub_assign(target);
    let loss = grad.as_slice().iter().map(|d| d * d).sum::<f32>();
    grad.scale(2.0 / n);
    loss
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean cross-entropy of a whole batch and its `dL/dlogits`.
    fn mean_ce(logits: &Matrix, targets: &[usize]) -> (f32, Matrix) {
        let mut d = Matrix::zeros(0, 0);
        let sum = softmax_cross_entropy_scaled_into(logits, targets, &mut d, logits.rows());
        (sum / logits.rows() as f32, d)
    }

    /// Mean squared error of a whole batch and its gradient.
    fn mean_mse(pred: &Matrix, target: &Matrix) -> (f32, Matrix) {
        let mut grad = Matrix::zeros(0, 0);
        let sum = mse_scaled_into(pred, target, &mut grad, pred.rows());
        (sum / (pred.rows() * pred.cols()) as f32, grad)
    }

    #[test]
    fn cross_entropy_of_uniform_logits_is_log_v() {
        let logits = Matrix::zeros(2, 4);
        let (loss, _) = mean_ce(&logits, &[0, 3]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_rows_sum_to_zero() {
        let logits = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 0.0, 0.1, -0.2]);
        let (_, d) = mean_ce(&logits, &[2, 0]);
        for r in 0..2 {
            let s: f32 = d.row(r).iter().sum();
            assert!(s.abs() < 1e-6, "row {} sums to {}", r, s);
        }
    }

    #[test]
    fn cross_entropy_gradient_matches_numerical() {
        let mut logits = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 0.0, 0.1, -0.2]);
        let targets = [2usize, 0];
        let (_, analytic) = mean_ce(&logits, &targets);
        let eps = 1e-3f32;
        for idx in 0..6 {
            let orig = logits.as_slice()[idx];
            logits.as_mut_slice()[idx] = orig + eps;
            let (plus, _) = mean_ce(&logits, &targets);
            logits.as_mut_slice()[idx] = orig - eps;
            let (minus, _) = mean_ce(&logits, &targets);
            logits.as_mut_slice()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (analytic.as_slice()[idx] - numeric).abs() < 1e-3,
                "idx {}: analytic {} vs numeric {}",
                idx,
                analytic.as_slice()[idx],
                numeric
            );
        }
    }

    #[test]
    fn perfect_prediction_has_near_zero_loss() {
        let mut logits = Matrix::zeros(1, 3);
        logits.set(0, 1, 50.0);
        let (loss, _) = mean_ce(&logits, &[1]);
        assert!(loss < 1e-5);
    }

    #[test]
    fn mse_known_value_and_gradient() {
        let pred = Matrix::from_vec(1, 2, vec![1.0, 3.0]);
        let target = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let (loss, grad) = mean_mse(&pred, &target);
        assert!((loss - 2.5).abs() < 1e-6); // (1 + 4)/2
        assert_eq!(grad.as_slice(), &[1.0, 2.0]); // 2*(pred-target)/2
    }

    #[test]
    fn mse_gradient_matches_numerical() {
        let mut pred = Matrix::from_vec(2, 2, vec![0.3, -0.7, 1.2, 0.0]);
        let target = Matrix::from_vec(2, 2, vec![0.0, 0.5, 1.0, -1.0]);
        let (_, analytic) = mean_mse(&pred, &target);
        let eps = 1e-3f32;
        for idx in 0..4 {
            let orig = pred.as_slice()[idx];
            pred.as_mut_slice()[idx] = orig + eps;
            let (plus, _) = mean_mse(&pred, &target);
            pred.as_mut_slice()[idx] = orig - eps;
            let (minus, _) = mean_mse(&pred, &target);
            pred.as_mut_slice()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            assert!((analytic.as_slice()[idx] - numeric).abs() < 1e-3);
        }
    }
}
