//! Property tests for training robustness: no parameter may ever become
//! NaN/inf, predictions stay valid distributions, and freezing holds
//! under arbitrary data.

use nfv_nn::{
    Adam, Optimizer, SeqView, SequenceModel, SequenceModelConfig, Sgd, TrainError, Trainable,
    Trainer, TrainerConfig,
};
use proptest::prelude::*;
use rand::{rngs::SmallRng, SeedableRng};

fn small_model(seed: u64, vocab: usize) -> SequenceModel {
    let mut rng = SmallRng::seed_from_u64(seed);
    SequenceModel::new(
        SequenceModelConfig { vocab, embed_dim: 5, hidden: 7, layers: 2, use_gap_feature: true },
        &mut rng,
    )
}

/// Takes `steps` optimizer steps on the whole of `view` through the
/// trainer, one unshuffled full batch per epoch.
fn fit_full_batch<O: Optimizer>(
    model: &mut SequenceModel,
    view: &SeqView<'_>,
    steps: usize,
    opt: O,
) -> Result<f32, TrainError> {
    let n = view.ids.len();
    let shapes = model.param_shapes();
    let cfg = TrainerConfig { epochs: steps, batch_size: n, shuffle: false, ..Default::default() };
    Trainer::new(cfg, opt, &shapes).fit(model, view, n, &mut SmallRng::seed_from_u64(0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Several optimizer steps on arbitrary (even adversarial) batches
    /// never destabilize the parameters.
    #[test]
    fn training_never_produces_non_finite_params(
        seed in 0u64..500,
        ids in prop::collection::vec(prop::collection::vec(0usize..9, 4), 2..6),
        targets_src in prop::collection::vec(0usize..9, 6),
        gap in 0.0f32..1.0,
    ) {
        let mut model = small_model(seed, 9);
        let gaps: Vec<Vec<f32>> = ids.iter().map(|w| vec![gap; w.len()]).collect();
        let targets: Vec<usize> = targets_src.iter().take(ids.len()).copied().collect();
        prop_assume!(targets.len() == ids.len());
        let view = SeqView { ids: &ids, gaps: &gaps, targets: &targets };

        let opt = Adam::new(0.05, &model.param_shapes());
        let fit = fit_full_batch(&mut model, &view, 5, opt);
        prop_assert!(fit.is_ok(), "training stopped: {:?}", fit);
        for p in model.params() {
            prop_assert!(!p.has_non_finite(), "non-finite parameter after training");
        }
        let probs = model.predict_probs(&view);
        prop_assert!(!probs.has_non_finite());
        for r in 0..probs.rows() {
            let s: f32 = probs.row(r).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-3, "row {} sums to {}", r, s);
        }
    }

    /// Loss on a fixed batch decreases (or at least does not explode)
    /// over a short SGD run for any seed.
    #[test]
    fn sgd_makes_progress(seed in 0u64..200) {
        let mut model = small_model(seed, 6);
        let ids = [vec![0, 1, 2, 3], vec![1, 2, 3, 4]];
        let gaps = [vec![0.2; 4], vec![0.2; 4]];
        let view = SeqView { ids: &ids, gaps: &gaps, targets: &[4, 5] };
        let first = model.evaluate_loss(&view);
        let opt = Sgd::new(0.05, 0.9, &model.param_shapes());
        prop_assert!(fit_full_batch(&mut model, &view, 30, opt).is_ok());
        let last = model.evaluate_loss(&view);
        prop_assert!(last < first, "loss {} -> {}", first, last);
    }

    /// Checkpoint roundtrips exactly for arbitrary seeds.
    #[test]
    fn checkpoint_roundtrip_is_exact(seed in 0u64..500) {
        let model = small_model(seed, 8);
        let restored = SequenceModel::from_checkpoint(&model.to_checkpoint());
        for (a, b) in model.params().iter().zip(restored.params().iter()) {
            prop_assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    /// Optimizer step with all-None gradients is a no-op regardless of
    /// learning rate.
    #[test]
    fn fully_frozen_step_is_noop(lr in 0.001f32..10.0) {
        let mut model = small_model(3, 6);
        let before: Vec<Vec<f32>> =
            model.params().iter().map(|p| p.as_slice().to_vec()).collect();
        let shapes = model.param_shapes();
        let mut opt = Adam::new(lr, &shapes);
        let masks: Vec<Option<&nfv_tensor::Matrix>> = vec![None; shapes.len()];
        let mut params = model.params_mut();
        opt.step(&mut params, &masks);
        drop(params);
        let after: Vec<Vec<f32>> =
            model.params().iter().map(|p| p.as_slice().to_vec()).collect();
        prop_assert_eq!(before, after);
    }
}
