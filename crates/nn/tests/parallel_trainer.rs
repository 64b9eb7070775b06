//! Determinism and fault-containment suite for the trainer's gradient
//! shards.
//!
//! The trainer's contract is that the thread count is pure scheduling:
//! the shard layout and the reduction order are functions of the batch's
//! index order and `shard_rows` alone, so every worker count must
//! produce bit-identical step losses and parameters. These tests pin
//! that contract for both model families, check that a multi-shard batch
//! reports its true mean loss, and verify that a panicking worker
//! surfaces as a typed [`TrainError`] instead of poisoning the pool.

use nfv_nn::{
    Activation, Adam, GradientSet, Mlp, MseRows, SeqView, SequenceModel, SequenceModelConfig, Sgd,
    ShardedBatchLoss, TrainError, Trainable, Trainer, TrainerConfig,
};
use nfv_tensor::Matrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct SeqData {
    ids: Vec<Vec<usize>>,
    gaps: Vec<Vec<f32>>,
    targets: Vec<usize>,
}

fn seq_data(n: usize, window: usize, vocab: usize, seed: u64) -> SeqData {
    let mut rng = SmallRng::seed_from_u64(seed);
    let ids = (0..n).map(|_| (0..window).map(|_| rng.gen_range(0..vocab)).collect()).collect();
    let gaps = (0..n).map(|_| (0..window).map(|_| rng.gen::<f32>()).collect()).collect();
    let targets = (0..n).map(|_| rng.gen_range(0..vocab)).collect();
    SeqData { ids, gaps, targets }
}

fn seq_model(seed: u64) -> SequenceModel {
    let cfg = SequenceModelConfig {
        vocab: 10,
        embed_dim: 6,
        hidden: 12,
        layers: 2,
        use_gap_feature: true,
    };
    SequenceModel::new(cfg, &mut SmallRng::seed_from_u64(seed))
}

/// Runs one multi-shard fit and returns (step losses, final parameters).
fn run_seq_fit(threads: usize, data: &SeqData) -> (Vec<f32>, Vec<Vec<f32>>) {
    let mut model = seq_model(42);
    let shapes = model.param_shapes();
    let cfg = TrainerConfig {
        epochs: 3,
        batch_size: 20,
        shard_rows: 8,
        threads,
        ..TrainerConfig::default()
    };
    let mut trainer = Trainer::new(cfg, Adam::new(5e-3, &shapes), &shapes);
    let view = SeqView { ids: &data.ids, gaps: &data.gaps, targets: &data.targets };
    let mut rng = SmallRng::seed_from_u64(9);
    trainer.fit(&mut model, &view, data.ids.len(), &mut rng).unwrap();
    let params = model.params().iter().map(|p| p.as_slice().to_vec()).collect();
    (trainer.step_losses().to_vec(), params)
}

#[test]
fn sequence_fit_is_bit_identical_for_any_thread_count() {
    // 40 windows at batch 20 / shard 8 -> 3 shards per batch, so the
    // multi-shard reduction path is exercised at every thread count.
    let data = seq_data(40, 5, 10, 1234);
    let (base_losses, base_params) = run_seq_fit(1, &data);
    assert_eq!(base_losses.len(), 3 * 2, "3 epochs x 2 batches");
    for threads in [2, 4, 8] {
        let (losses, params) = run_seq_fit(threads, &data);
        assert_eq!(losses, base_losses, "losses diverged at {threads} threads");
        assert_eq!(params, base_params, "parameters diverged at {threads} threads");
    }
}

#[test]
fn mlp_fit_is_bit_identical_for_any_thread_count() {
    let rows: Vec<Vec<f32>> =
        (0..30).map(|r| (0..6).map(|c| ((r * 11 + c * 5) % 13) as f32 * 0.07).collect()).collect();
    let run = |threads: usize| -> (Vec<f32>, Vec<Vec<f32>>) {
        let mut mlp = Mlp::new(
            &[6, 4, 6],
            Activation::Tanh,
            Activation::Identity,
            &mut SmallRng::seed_from_u64(7),
        );
        let shapes = Trainable::param_shapes(&mlp);
        let cfg = TrainerConfig {
            epochs: 4,
            batch_size: 10,
            shard_rows: 4,
            threads,
            ..TrainerConfig::default()
        };
        let mut trainer = Trainer::new(cfg, Adam::new(3e-3, &shapes), &shapes);
        let data = MseRows { x: &rows, target: &rows };
        let mut rng = SmallRng::seed_from_u64(5);
        trainer.fit(&mut mlp, &data, rows.len(), &mut rng).unwrap();
        let params = mlp.params().iter().map(|p| p.as_slice().to_vec()).collect();
        (trainer.step_losses().to_vec(), params)
    };
    let (base_losses, base_params) = run(1);
    for threads in [2, 4] {
        let (losses, params) = run(threads);
        assert_eq!(losses, base_losses, "losses diverged at {threads} threads");
        assert_eq!(params, base_params, "parameters diverged at {threads} threads");
    }
}

#[test]
fn multi_shard_mlp_loss_is_the_element_mean() {
    // 40 rows at shard width 16 -> shards of 16, 16 and 8 rows. The step
    // loss is reported before the update, so it must equal the mean
    // squared error of the untrained model over all 40 x 6 elements.
    let rows: Vec<Vec<f32>> =
        (0..40).map(|r| (0..6).map(|c| ((r * 7 + c * 3) % 11) as f32 * 0.09).collect()).collect();
    let mut mlp = Mlp::new(
        &[6, 4, 6],
        Activation::Tanh,
        Activation::Identity,
        &mut SmallRng::seed_from_u64(3),
    );
    let x = Matrix::from_fn(40, 6, |r, c| rows[r][c]);
    let y = mlp.infer(&x);
    let direct = x.as_slice().iter().zip(y.as_slice()).map(|(a, b)| ((b - a) as f64).powi(2));
    let direct = direct.sum::<f64>() / (40 * 6) as f64;

    let shapes = Trainable::param_shapes(&mlp);
    let cfg =
        TrainerConfig { epochs: 1, batch_size: 40, shard_rows: 16, ..TrainerConfig::default() };
    let mut trainer = Trainer::new(cfg, Adam::new(3e-3, &shapes), &shapes);
    let data = MseRows { x: &rows, target: &rows };
    trainer.fit(&mut mlp, &data, rows.len(), &mut SmallRng::seed_from_u64(1)).unwrap();
    let reported = trainer.step_losses()[0] as f64;
    assert!(
        (reported - direct).abs() <= 1e-6 * direct,
        "reported loss {reported} is not the element mean {direct}"
    );
}

/// y = w * x toward y = 2x, with an optional poisoned sample index whose
/// shard computation panics.
struct Panicky {
    w: Matrix,
    panic_on: Option<usize>,
}

impl Trainable for Panicky {
    fn params(&self) -> Vec<&Matrix> {
        vec![&self.w]
    }
    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.w]
    }
}

impl ShardedBatchLoss<[f32]> for Panicky {
    type Worker = ();

    fn shard_gradients(
        &self,
        data: &[f32],
        indices: &[usize],
        total: usize,
        _worker: &mut (),
        grads: &mut GradientSet,
    ) -> f32 {
        let w = self.w.get(0, 0);
        let mut sum = 0.0;
        let mut g = 0.0;
        for &i in indices {
            if Some(i) == self.panic_on {
                panic!("poisoned sample {i}");
            }
            let x = data[i];
            let err = w * x - 2.0 * x;
            sum += err * err;
            g += 2.0 * err * x;
        }
        let slot = grads.get_mut(0);
        slot.set(0, 0, slot.get(0, 0) + g / total as f32);
        sum
    }
}

#[test]
fn large_batches_cross_the_serial_cutoff_and_stay_bit_identical() {
    // PAR_MIN_BATCH_ROWS gates worker spawning: batches below it run on
    // the calling thread, batches at or above it fan out. Both sides of
    // the gate must produce the same bits, and the spawn path itself
    // must stay covered now that the small fixtures above run inline.
    let n = nfv_nn::PAR_MIN_BATCH_ROWS * 2;
    let data: Vec<f32> = (0..n).map(|i| (i % 97) as f32 * 0.01 + 0.1).collect();
    let run = |threads: usize| -> (Vec<f32>, f32) {
        let mut model = Panicky { w: Matrix::zeros(1, 1), panic_on: None };
        let cfg = TrainerConfig {
            epochs: 2,
            batch_size: nfv_nn::PAR_MIN_BATCH_ROWS,
            shard_rows: 16,
            threads,
            shuffle: false,
        };
        let mut trainer = Trainer::new(cfg, Sgd::new(0.02, 0.0, &[(1, 1)]), &[(1, 1)]);
        let mut rng = SmallRng::seed_from_u64(3);
        trainer.fit(&mut model, data.as_slice(), n, &mut rng).unwrap();
        (trainer.step_losses().to_vec(), model.w.get(0, 0))
    };
    let (base_losses, base_w) = run(1);
    assert_eq!(base_losses.len(), 2 * 2, "2 epochs x 2 full batches");
    for threads in [2, 4] {
        let (losses, w) = run(threads);
        assert_eq!(losses, base_losses, "losses diverged at {threads} threads");
        assert_eq!(w.to_bits(), base_w.to_bits(), "weight diverged at {threads} threads");
    }
}

#[test]
fn auto_shard_rows_resolves_from_batch_size_alone() {
    // shard_rows == 0 is the auto sentinel: the resolved width depends
    // only on batch_size (never threads), and at the default batch size
    // it reproduces the historical fixed width so recorded trajectories
    // are unchanged.
    let auto = |batch_size: usize, threads: usize| {
        TrainerConfig { batch_size, shard_rows: 0, threads, ..TrainerConfig::default() }
            .resolved_shard_rows()
    };
    assert_eq!(auto(64, 1), nfv_nn::DEFAULT_SHARD_ROWS);
    assert_eq!(auto(64, 8), nfv_nn::DEFAULT_SHARD_ROWS, "threads must not affect the layout");
    assert_eq!(auto(1, 1), nfv_nn::DEFAULT_SHARD_ROWS, "tiny batches keep the default width");
    // Large batches scale the width so shard count stays bounded.
    assert_eq!(auto(4096, 4), 256);
    // Explicit widths are always honored verbatim.
    let explicit = TrainerConfig { batch_size: 4096, shard_rows: 8, ..TrainerConfig::default() };
    assert_eq!(explicit.resolved_shard_rows(), 8);
}

#[test]
fn one_shard_batch_panic_surfaces_as_typed_error() {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    // Batch 8 within shard_rows 16: the whole batch is one shard, which
    // runs on the calling thread.
    let data: Vec<f32> = (1..=8).map(|i| i as f32 * 0.25).collect();
    let mut model = Panicky { w: Matrix::zeros(1, 1), panic_on: Some(5) };
    let cfg =
        TrainerConfig { epochs: 1, batch_size: 8, shard_rows: 16, threads: 1, shuffle: false };
    let mut trainer = Trainer::new(cfg, Sgd::new(0.05, 0.0, &[(1, 1)]), &[(1, 1)]);
    let mut rng = SmallRng::seed_from_u64(0);
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        trainer.fit(&mut model, data.as_slice(), data.len(), &mut rng)
    }));
    std::panic::set_hook(hook);

    let err = res.expect("a one-shard panic escaped fit").unwrap_err();
    let TrainError::WorkerPanic { shard, message } = err else {
        panic!("expected WorkerPanic, got {err:?}");
    };
    assert_eq!(shard, 0);
    assert!(message.contains("poisoned sample 5"), "payload lost: {message}");
    assert_eq!(model.w.get(0, 0), 0.0, "the step was aborted before the optimizer ran");
    assert!(trainer.step_losses().is_empty());

    model.panic_on = None;
    let loss = trainer.fit(&mut model, data.as_slice(), data.len(), &mut rng).unwrap();
    assert!(loss.is_finite());
}

#[test]
fn worker_panic_surfaces_as_typed_error_and_pool_stays_usable() {
    // Keep the default hook from spamming the test log with the expected
    // panic's backtrace; the payload still reaches the typed error.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let data: Vec<f32> = (1..=8).map(|i| i as f32 * 0.25).collect();
    let mut model = Panicky { w: Matrix::zeros(1, 1), panic_on: Some(5) };
    let cfg = TrainerConfig { epochs: 2, batch_size: 8, shard_rows: 2, threads: 3, shuffle: false };
    let mut trainer = Trainer::new(cfg, Sgd::new(0.05, 0.0, &[(1, 1)]), &[(1, 1)]);
    let mut rng = SmallRng::seed_from_u64(0);
    let err = trainer.fit(&mut model, data.as_slice(), data.len(), &mut rng).unwrap_err();
    std::panic::set_hook(hook);

    let TrainError::WorkerPanic { shard, message } = err else {
        panic!("expected WorkerPanic, got {err:?}");
    };
    // Sample 5 lives in shard 2 of the fixed [0,1][2,3][4,5][6,7] layout.
    assert_eq!(shard, 2);
    assert!(message.contains("poisoned sample 5"), "payload lost: {message}");
    // The step was aborted before the optimizer ran.
    assert_eq!(model.w.get(0, 0), 0.0);
    assert!(trainer.step_losses().is_empty());

    // The same trainer keeps working once the poison is gone — the pool
    // is not left in a wedged or half-written state.
    model.panic_on = None;
    let loss = trainer.fit(&mut model, data.as_slice(), data.len(), &mut rng).unwrap();
    assert!(loss.is_finite());
    assert_eq!(trainer.step_losses().len(), 2);
    assert!((model.w.get(0, 0) - 2.0).abs() < 2.0, "w moved toward the target");
}
