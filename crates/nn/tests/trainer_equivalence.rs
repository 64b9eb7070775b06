//! Captured-trajectory suite for the [`Trainer`] loop.
//!
//! The loss trajectories below were captured by running the original
//! allocating implementation (per-step gradient clones, per-call matrix
//! allocations) on fixed seeds. The in-place kernels preserve
//! per-element summation order, so the trainer must reproduce every
//! step loss bit for bit, at any thread count.

use nfv_nn::{
    Activation, Adam, GradientSet, GruLayer, GruSequenceModel, LstmLayer, Mlp, MseRows,
    RecurrentCell, RecurrentModel, RecurrentScratch, SeqView, SequenceModel, SequenceModelConfig,
    Sgd, ShardedBatchLoss, TrainError, Trainable, Trainer, TrainerConfig,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// LSTM sequence-model losses: model seed 42, data seed 1234, 16
/// windows of length 6, vocab 12, Adam 5e-3, 25 full-batch steps.
const SEQ_TRAJ: [f32; 25] = [
    2.4849496, 2.4691317, 2.45332, 2.436119, 2.4166152, 2.3940396, 2.3675995, 2.3364651, 2.299871,
    2.2573574, 2.209166, 2.1568036, 2.1035602, 2.0539556, 2.0118346, 1.9784019, 1.9510148,
    1.9252096, 1.8986655, 1.8720356, 1.847379, 1.8270649, 1.8118224, 1.8003098, 1.7917213,
];

/// GRU sequence-model losses through the `Trainer`: the [`SEQ_TRAJ`]
/// fixture (model seed 42, data seed 1234, Adam 5e-3, 25 full-batch
/// steps) with GRU layers, captured from the standalone GRU model that
/// preceded the shared recurrent stack.
const GRU_TRAJ: [f32; 25] = [
    2.4655533, 2.427831, 2.389099, 2.3482864, 2.304579, 2.257497, 2.207012, 2.1537504, 2.0992281,
    2.0461202, 1.9983602, 1.960539, 1.935621, 1.9208972, 1.9091022, 1.8953601, 1.8790141,
    1.8613176, 1.8435544, 1.8264991, 1.8105471, 1.7959865, 1.7831595, 1.7723169, 1.7632793,
];

/// MLP autoencoder losses (mean squared error per element): seed 77,
/// widths [10, 6, 3, 6, 10], fixed 12x10 input autoencoded, Adam 3e-3,
/// 25 full-batch steps.
const MLP_TRAJ: [f32; 25] = [
    0.3251093, 0.30827177, 0.29235235, 0.27744457, 0.26362547, 0.25093812, 0.23938751, 0.22894134,
    0.21953328, 0.2110682, 0.20343404, 0.19651249, 0.1901848, 0.18433513, 0.17885454, 0.17364398,
    0.16861872, 0.16371116, 0.15887389, 0.15408033, 0.14932378, 0.1446142, 0.13997452, 0.1354349,
    0.13102815,
];

/// Bitwise comparison of a step-loss trace against a captured one.
fn assert_traj_exact(got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "trajectory length mismatch");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "step {} loss diverged: got {}, captured {}", i, g, w);
    }
}

/// Step losses of 25 unshuffled full-batch epochs of `n` samples through
/// the trainer at `threads` workers.
fn full_batch_losses<D: ?Sized + Sync, M: ShardedBatchLoss<D>>(
    model: &mut M,
    data: &D,
    n: usize,
    lr: f32,
    threads: usize,
) -> Vec<f32> {
    let shapes = model.param_shapes();
    // 25 epochs x one full batch per epoch = the 25 captured steps; with
    // shuffling off the rng is never consulted.
    let cfg =
        TrainerConfig { epochs: 25, batch_size: n, shuffle: false, threads, ..Default::default() };
    let mut trainer = Trainer::new(cfg, Adam::new(lr, &shapes), &shapes);
    trainer.fit(model, data, n, &mut SmallRng::seed_from_u64(0)).unwrap();
    trainer.step_losses().to_vec()
}

struct SeqFixture {
    model: SequenceModel,
    ids: Vec<Vec<usize>>,
    gaps: Vec<Vec<f32>>,
    targets: Vec<usize>,
}

fn seq_fixture() -> SeqFixture {
    let cfg = SequenceModelConfig {
        vocab: 12,
        embed_dim: 8,
        hidden: 16,
        layers: 2,
        use_gap_feature: true,
    };
    let mut rng = SmallRng::seed_from_u64(42);
    let model = SequenceModel::new(cfg, &mut rng);
    let mut data_rng = SmallRng::seed_from_u64(1234);
    let n = 16usize;
    let window = 6usize;
    let ids: Vec<Vec<usize>> =
        (0..n).map(|_| (0..window).map(|_| data_rng.gen_range(0..12)).collect()).collect();
    let gaps: Vec<Vec<f32>> =
        (0..n).map(|_| (0..window).map(|_| data_rng.gen::<f32>()).collect()).collect();
    let targets: Vec<usize> = (0..n).map(|_| data_rng.gen_range(0..12)).collect();
    SeqFixture { model, ids, gaps, targets }
}

#[test]
fn trainer_reproduces_captured_sequence_trajectory() {
    let SeqFixture { mut model, ids, gaps, targets } = seq_fixture();
    let view = SeqView { ids: &ids, gaps: &gaps, targets: &targets };
    assert_traj_exact(&full_batch_losses(&mut model, &view, 16, 5e-3, 1), &SEQ_TRAJ);
}

#[test]
fn sharded_trainer_with_single_shard_reproduces_captured_trajectory() {
    // The 16-window full batch fits in one default-width shard, which is
    // the serial case of the sharded step; the thread count only
    // schedules, so four workers must still give the captured bits.
    let cfg = TrainerConfig { batch_size: 16, ..Default::default() };
    assert!(cfg.resolved_shard_rows() >= 16, "the full batch must be one shard");
    let SeqFixture { mut model, ids, gaps, targets } = seq_fixture();
    let view = SeqView { ids: &ids, gaps: &gaps, targets: &targets };
    assert_traj_exact(&full_batch_losses(&mut model, &view, 16, 5e-3, 4), &SEQ_TRAJ);
}

#[test]
fn trainer_reproduces_captured_gru_trajectory() {
    for threads in [1, 4] {
        let SeqFixture { ids, gaps, targets, .. } = seq_fixture();
        let cfg = SequenceModelConfig {
            vocab: 12,
            embed_dim: 8,
            hidden: 16,
            layers: 2,
            use_gap_feature: true,
        };
        let mut model = GruSequenceModel::new(cfg, &mut SmallRng::seed_from_u64(42));
        let view = SeqView { ids: &ids, gaps: &gaps, targets: &targets };
        assert_traj_exact(&full_batch_losses(&mut model, &view, 16, 5e-3, threads), &GRU_TRAJ);
    }
}

#[test]
fn trainer_reproduces_captured_mlp_trajectory() {
    // The reported loss is the mean over all 12 x 10 elements, not over
    // the 12 rows alone.
    let rows: Vec<Vec<f32>> =
        (0..12).map(|r| (0..10).map(|c| ((r * 13 + c * 7) % 17) as f32 * 0.05).collect()).collect();
    let data = MseRows { x: &rows, target: &rows };
    for threads in [1, 4] {
        let mut rng = SmallRng::seed_from_u64(77);
        let mut mlp =
            Mlp::new(&[10, 6, 3, 6, 10], Activation::Tanh, Activation::Identity, &mut rng);
        assert_traj_exact(&full_batch_losses(&mut mlp, &data, 12, 3e-3, threads), &MLP_TRAJ);
    }
}

#[test]
fn exploding_lr_stops_training_with_typed_error() {
    let mut rng = SmallRng::seed_from_u64(5);
    let mut mlp = Mlp::new(&[1, 1], Activation::Identity, Activation::Identity, &mut rng);
    let rows = vec![vec![2.0f32]];
    let data = MseRows { x: &rows, target: &rows };
    let shapes = Trainable::param_shapes(&mlp);
    // An absurd learning rate overflows the parameters after the first
    // step; the second batch loss is non-finite and must abort the run
    // before the optimizer consumes the bad gradients.
    let cfg = TrainerConfig { epochs: 10, batch_size: 1, shuffle: false, ..Default::default() };
    let mut trainer = Trainer::new(cfg, Sgd::new(1e19, 0.0, &shapes), &shapes);
    let mut seed = SmallRng::seed_from_u64(0);
    let err = trainer.fit(&mut mlp, &data, 1, &mut seed).unwrap_err();
    let TrainError::NonFiniteLoss { step, loss } = err else {
        panic!("expected NonFiniteLoss, got {err:?}");
    };
    assert!(!loss.is_finite(), "guard fired on a finite loss {}", loss);
    assert!(step >= 1, "first step should have been finite");
    // Only losses of completed steps are traced.
    assert_eq!(trainer.step_losses().len(), step);
    assert!(trainer.step_losses().iter().all(|l| l.is_finite()));
}

#[test]
fn nan_weight_behind_zero_activation_trips_non_finite_guard() {
    // Regression for the old matmul zero-skip fast path: a NaN in the
    // rhs (a poisoned weight) whose paired lhs element is exactly 0.0 (a
    // zeroed activation) used to be skipped — `0.0 * NaN` never entered
    // the accumulator — so the forward pass stayed finite and the
    // `NonFiniteLoss` guard never fired. The packed GEMM backend has no
    // such skip: the NaN must reach the logits and abort training on the
    // very first step.
    let mut rng = SmallRng::seed_from_u64(3);
    let mut mlp = Mlp::new(&[2, 1], Activation::Identity, Activation::Identity, &mut rng);
    // Poison the weight row that only ever multiplies the zero input.
    Trainable::params_mut(&mut mlp)[0].set(0, 0, f32::NAN);
    let rows = vec![vec![0.0f32, 1.0]];
    let targets = vec![vec![0.5f32]];
    let data = MseRows { x: &rows, target: &targets };
    let shapes = Trainable::param_shapes(&mlp);
    let cfg = TrainerConfig { epochs: 3, batch_size: 1, shuffle: false, ..Default::default() };
    let mut trainer = Trainer::new(cfg, Sgd::new(1e-2, 0.0, &shapes), &shapes);
    let mut seed = SmallRng::seed_from_u64(0);
    let err = trainer.fit(&mut mlp, &data, 1, &mut seed).unwrap_err();
    let TrainError::NonFiniteLoss { step, loss } = err else {
        panic!("expected NonFiniteLoss from the poisoned weight, got {err:?}");
    };
    assert_eq!(step, 0, "the NaN must surface on the first forward pass");
    assert!(loss.is_nan(), "swallowed NaN: loss was {}", loss);
}

#[test]
fn sequence_model_batch_gradients_match_finite_differences() {
    model_gradients_match_finite_differences::<LstmLayer>();
}

#[test]
fn gru_sequence_model_batch_gradients_match_finite_differences() {
    model_gradients_match_finite_differences::<GruLayer>();
}

fn model_gradients_match_finite_differences<C: RecurrentCell>() {
    let cfg =
        SequenceModelConfig { vocab: 6, embed_dim: 4, hidden: 5, layers: 2, use_gap_feature: true };
    let mut rng = SmallRng::seed_from_u64(9);
    let mut model = RecurrentModel::<C>::new(cfg, &mut rng);
    let mut data_rng = SmallRng::seed_from_u64(31);
    let n = 3usize;
    let window = 4usize;
    let ids: Vec<Vec<usize>> =
        (0..n).map(|_| (0..window).map(|_| data_rng.gen_range(0..6)).collect()).collect();
    let gaps: Vec<Vec<f32>> =
        (0..n).map(|_| (0..window).map(|_| data_rng.gen::<f32>()).collect()).collect();
    let targets: Vec<usize> = (0..n).map(|_| data_rng.gen_range(0..6)).collect();
    let indices: Vec<usize> = (0..n).collect();

    let mut grads = GradientSet::new(&model.param_shapes());
    let view = SeqView { ids: &ids, gaps: &gaps, targets: &targets };
    model.shard_gradients(&view, &indices, n, &mut RecurrentScratch::default(), &mut grads);

    let eps = 1e-2f32;
    let n_params = model.params().len();
    for p in 0..n_params {
        let len = model.params()[p].as_slice().len();
        // Probe a spread of elements per matrix; a full sweep over every
        // weight would dominate the test suite's runtime.
        let stride = (len / 5).max(1);
        for idx in (0..len).step_by(stride) {
            let orig = model.params()[p].as_slice()[idx];
            model.params_mut()[p].as_mut_slice()[idx] = orig + eps;
            let plus = model.evaluate_loss(&view);
            model.params_mut()[p].as_mut_slice()[idx] = orig - eps;
            let minus = model.evaluate_loss(&view);
            model.params_mut()[p].as_mut_slice()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = grads.get(p).as_slice()[idx];
            assert!(
                (analytic - numeric).abs() < 3e-3,
                "param {} elem {}: analytic {} vs numeric {}",
                p,
                idx,
                analytic,
                numeric
            );
        }
    }
}
