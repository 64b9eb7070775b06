//! Serialization lock for every detector family: `to_state` →
//! JSON text → `load_state` into a *fresh* detector must restore the
//! exact model (bit-identical scores) *and* the exact RNG position
//! (bit-identical behaviour on the next update). This is the substrate
//! the pipeline checkpoint builds on.

use nfv_detect::baselines::{
    AutoencoderConfig, AutoencoderDetector, OcsvmDetector, OcsvmDetectorConfig, PcaDetector,
    PcaDetectorConfig,
};
use nfv_detect::detector::AnomalyDetector;
use nfv_detect::hmm_detector::{HmmDetector, HmmDetectorConfig};
use nfv_detect::seq_detector::{LstmDetector, LstmDetectorConfig};
use nfv_syslog::{LogRecord, LogStream};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn mixed_stream(len: usize, seed: u64) -> LogStream {
    let mut rng = SmallRng::seed_from_u64(seed);
    LogStream::from_records(
        (0..len)
            .map(|i| LogRecord {
                time: i as u64 * 30,
                template: if rng.gen::<f32>() < 0.15 { rng.gen_range(1..8) } else { 1 + (i % 5) },
            })
            .collect(),
    )
}

fn assert_scores_bit_identical(a: &dyn AnomalyDetector, b: &dyn AnomalyDetector, label: &str) {
    let test = mixed_stream(300, 99);
    let ea = a.score(&test, 0, u64::MAX);
    let eb = b.score(&test, 0, u64::MAX);
    assert_eq!(ea.len(), eb.len(), "{label}: event count");
    for (x, y) in ea.iter().zip(&eb) {
        assert_eq!(x.time, y.time, "{label}: time");
        assert_eq!(x.score.to_bits(), y.score.to_bits(), "{label}: score bits");
    }
}

/// Fit `a`, restore its state into fresh `b`, then drive both through a
/// further update: scores must stay bit-identical, proving both the
/// parameters and the RNG position survived the text roundtrip.
fn roundtrip_and_update(
    mut a: Box<dyn AnomalyDetector>,
    mut b: Box<dyn AnomalyDetector>,
    label: &str,
) {
    let train = mixed_stream(900, 1);
    a.fit(&[&train]);

    let text = a.to_state().to_string();
    let parsed = serde_json::from_str(&text).unwrap();
    b.load_state(&parsed).unwrap();
    assert_scores_bit_identical(a.as_ref(), b.as_ref(), label);

    let fresh = mixed_stream(700, 2);
    a.update(&[&fresh]);
    b.update(&[&fresh]);
    assert_scores_bit_identical(a.as_ref(), b.as_ref(), &format!("{label} after update"));
}

#[test]
fn lstm_state_roundtrips_bit_identically() {
    let cfg = LstmDetectorConfig {
        vocab: 16,
        window: 4,
        embed_dim: 6,
        hidden: 8,
        epochs: 1,
        update_epochs: 1,
        max_train_windows: 300,
        ..Default::default()
    };
    roundtrip_and_update(
        Box::new(LstmDetector::new(cfg.clone())),
        Box::new(LstmDetector::new(cfg)),
        "lstm",
    );
}

#[test]
fn autoencoder_state_roundtrips_bit_identically() {
    let cfg =
        AutoencoderConfig { vocab: 16, hidden: 8, bottleneck: 3, epochs: 2, ..Default::default() };
    roundtrip_and_update(
        Box::new(AutoencoderDetector::new(cfg.clone())),
        Box::new(AutoencoderDetector::new(cfg)),
        "autoencoder",
    );
}

#[test]
fn ocsvm_state_roundtrips_bit_identically() {
    let cfg = OcsvmDetectorConfig { vocab: 16, ..Default::default() };
    roundtrip_and_update(
        Box::new(OcsvmDetector::new(cfg.clone())),
        Box::new(OcsvmDetector::new(cfg)),
        "ocsvm",
    );
}

#[test]
fn pca_state_roundtrips_bit_identically() {
    let cfg = PcaDetectorConfig { vocab: 16, ..Default::default() };
    roundtrip_and_update(
        Box::new(PcaDetector::new(cfg.clone())),
        Box::new(PcaDetector::new(cfg)),
        "pca",
    );
}

#[test]
fn hmm_state_roundtrips_bit_identically() {
    let cfg = HmmDetectorConfig { vocab: 16, window: 4, states: 4, iters: 5, ..Default::default() };
    roundtrip_and_update(
        Box::new(HmmDetector::new(cfg.clone())),
        Box::new(HmmDetector::new(cfg)),
        "hmm",
    );
}

#[test]
fn unfitted_state_roundtrips() {
    // Detectors with optional models must serialize the "never fitted"
    // state too (a crash can land before any data arrives).
    let cfg = PcaDetectorConfig { vocab: 16, ..Default::default() };
    let a = PcaDetector::new(cfg.clone());
    let mut b = PcaDetector::new(cfg);
    let parsed = serde_json::from_str(&a.to_state().to_string()).unwrap();
    b.load_state(&parsed).unwrap();
    assert!(b.score(&mixed_stream(100, 7), 0, u64::MAX).is_empty());
}

#[test]
fn state_tag_mismatch_is_rejected() {
    let pca = PcaDetector::new(PcaDetectorConfig { vocab: 16, ..Default::default() });
    let mut hmm = HmmDetector::new(HmmDetectorConfig { vocab: 16, ..Default::default() });
    assert!(hmm.load_state(&pca.to_state()).is_err(), "hmm must reject a pca state blob");
}
