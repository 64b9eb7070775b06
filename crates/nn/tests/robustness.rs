//! Property tests for training robustness: no parameter may ever become
//! NaN/inf, predictions stay valid distributions, and freezing holds
//! under arbitrary data.

use nfv_nn::model::SeqBatch;
use nfv_nn::{Adam, Optimizer, SequenceModel, SequenceModelConfig, Sgd, Trainable};
use proptest::prelude::*;
use rand::{rngs::SmallRng, SeedableRng};

fn small_model(seed: u64, vocab: usize) -> SequenceModel {
    let mut rng = SmallRng::seed_from_u64(seed);
    SequenceModel::new(
        SequenceModelConfig { vocab, embed_dim: 5, hidden: 7, layers: 2, use_gap_feature: true },
        &mut rng,
    )
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
        let batch = SeqBatch {
            gaps: ids.iter().map(|w| vec![gap; w.len()]).collect(),
            ids: ids.clone(),
        };
        let targets: Vec<usize> = targets_src.iter().take(ids.len()).copied().collect();
        prop_assume!(targets.len() == ids.len());

        let mut opt = Adam::new(0.05, &model.param_shapes());
        for _ in 0..5 {
            let loss = model.train_step(&batch, &targets, &mut opt);
            prop_assert!(loss.is_finite(), "loss became {}", loss);
        }
        for p in model.params() {
            prop_assert!(!p.has_non_finite(), "non-finite parameter after training");
        }
        let probs = model.predict_probs(&batch);
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
        let batch = SeqBatch {
            ids: vec![vec![0, 1, 2, 3], vec![1, 2, 3, 4]],
            gaps: vec![vec![0.2; 4], vec![0.2; 4]],
        };
        let targets = vec![4usize, 5];
        let mut opt = Sgd::new(0.05, 0.9, &model.param_shapes());
        let first = model.evaluate_loss(&batch, &targets);
        for _ in 0..30 {
            model.train_step(&batch, &targets, &mut opt);
        }
        let last = model.evaluate_loss(&batch, &targets);
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
