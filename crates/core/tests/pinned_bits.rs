//! Bit pins for the recurrent detectors and model bundles.
//!
//! The digests below were captured from the separate LSTM and GRU
//! implementations that preceded the shared recurrent stack, and must
//! never change: they prove that detector states, checkpoints and
//! bundles written before the stack was unified still load under their
//! original tags and score to the same bits.
//!
//! The update/adapt digests pin the training pass beyond one fit: a
//! monthly update, then a transfer-learning adaptation with the bottom
//! two components frozen. They were captured before the backward pass
//! learned to skip frozen components, and must not change either.

use nfv_detect::detector::AnomalyDetector;
use nfv_detect::{
    GruDetector, GruDetectorConfig, LogCodec, LstmDetector, LstmDetectorConfig, MappingConfig,
    ModelBundle,
};
use nfv_nn::checkpoint::fnv1a64;
use nfv_syslog::message::Severity;
use nfv_syslog::{LogRecord, LogStream, SyslogMessage};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `to_state()` text and score-bit digests of the seeded LSTM fit.
const LSTM_STATE_DIGEST: u64 = 0x1ed43bc711dd191e;
const LSTM_SCORE_DIGEST: u64 = 0xa86605a843f11550;
/// `to_state()` text and score-bit digests of the seeded GRU fit.
const GRU_STATE_DIGEST: u64 = 0x3b35bfe4c710ae94;
const GRU_SCORE_DIGEST: u64 = 0x6ff04b476060944d;
/// `to_value()` text digest of the packed LSTM bundle.
const LSTM_BUNDLE_DIGEST: u64 = 0x4938c88684cba394;
/// `to_state()` text and score-bit digests of the seeded LSTM after
/// `fit`, `update` and `adapt` (which freezes the bottom two components).
const LSTM_ADAPT_STATE_DIGEST: u64 = 0x7f361d0f1547e0f6;
const LSTM_ADAPT_SCORE_DIGEST: u64 = 0xdaacde262e0fce9d;
/// The same digests for the GRU.
const GRU_ADAPT_STATE_DIGEST: u64 = 0xc41b91387ea842f7;
const GRU_ADAPT_SCORE_DIGEST: u64 = 0x13a756162d2017f4;

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

/// A stream whose software update moved its chatter: templates 9–13
/// replace 1–5 on most records.
fn shifted_stream(len: usize, seed: u64) -> LogStream {
    let mut rng = SmallRng::seed_from_u64(seed);
    LogStream::from_records(
        (0..len)
            .map(|i| LogRecord {
                time: i as u64 * 30,
                template: if rng.gen::<f32>() < 0.3 { 1 + (i % 5) } else { 9 + (i % 5) },
            })
            .collect(),
    )
}

fn score_digest(det: &dyn AnomalyDetector) -> u64 {
    let mut bits = Vec::new();
    for e in det.score(&mixed_stream(300, 99), 0, u64::MAX) {
        bits.extend_from_slice(&e.time.to_le_bytes());
        bits.extend_from_slice(&e.score.to_bits().to_le_bytes());
    }
    assert!(!bits.is_empty(), "the pinned fit must score windows");
    fnv1a64(&bits)
}

/// Fits `det` on a seeded stream, restores its state text into the
/// untrained `fresh`, and returns the digests of the state text and of
/// the score bits on a second stream (equal for both detectors).
fn fit_digests(det: &mut dyn AnomalyDetector, fresh: &mut dyn AnomalyDetector) -> (u64, u64) {
    det.fit(&[&mixed_stream(900, 1)]);
    let state = det.to_state().to_string();
    fresh.load_state(&serde_json::from_str(&state).unwrap()).unwrap();
    let scores = score_digest(det);
    assert_eq!(score_digest(fresh), scores, "restored state must score the same bits");
    (fnv1a64(state.as_bytes()), scores)
}

/// Fits `det`, then runs a monthly `update` and a post-update `adapt`
/// on seeded streams, and returns the digests of its state text and of
/// its score bits on a shifted stream.
fn adapt_digests(det: &mut dyn AnomalyDetector) -> (u64, u64) {
    det.fit(&[&mixed_stream(600, 1)]);
    det.update(&[&mixed_stream(400, 2), &mixed_stream(300, 3)]);
    det.adapt(&[&shifted_stream(500, 4)]);
    let state = det.to_state().to_string();
    let mut bits = Vec::new();
    for e in det.score(&shifted_stream(300, 5), 0, u64::MAX) {
        bits.extend_from_slice(&e.time.to_le_bytes());
        bits.extend_from_slice(&e.score.to_bits().to_le_bytes());
    }
    assert!(!bits.is_empty(), "the pinned adaptation must score windows");
    (fnv1a64(state.as_bytes()), fnv1a64(&bits))
}

/// The configuration of the update/adapt pins: four 16-row gradient
/// shards per 64-window batch, two layers, so `adapt` freezes the
/// embedding and layer 0 and trains layer 1 and the head.
fn adapt_config() -> LstmDetectorConfig {
    LstmDetectorConfig {
        vocab: 16,
        window: 4,
        embed_dim: 6,
        hidden: 8,
        epochs: 1,
        update_epochs: 1,
        adapt_epochs: 2,
        oversample_rounds: 1,
        max_train_windows: 400,
        ..Default::default()
    }
}

fn assert_pinned(label: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{label}: got {got:#018x}, pinned {want:#018x}");
}

#[test]
fn lstm_state_and_scores_match_pinned_digests() {
    let cfg = LstmDetectorConfig {
        vocab: 16,
        window: 4,
        embed_dim: 6,
        hidden: 8,
        epochs: 1,
        max_train_windows: 300,
        ..Default::default()
    };
    let mut fresh = LstmDetector::new(cfg.clone());
    let (state, scores) = fit_digests(&mut LstmDetector::new(cfg), &mut fresh);
    assert_pinned("LSTM_STATE_DIGEST", state, LSTM_STATE_DIGEST);
    assert_pinned("LSTM_SCORE_DIGEST", scores, LSTM_SCORE_DIGEST);
}

#[test]
fn gru_state_and_scores_match_pinned_digests() {
    let cfg = GruDetectorConfig {
        vocab: 16,
        window: 4,
        embed_dim: 6,
        hidden: 8,
        epochs: 1,
        max_train_windows: 300,
        ..Default::default()
    };
    let mut fresh = GruDetector::new(cfg.clone());
    let (state, scores) = fit_digests(&mut GruDetector::new(cfg), &mut fresh);
    assert_pinned("GRU_STATE_DIGEST", state, GRU_STATE_DIGEST);
    assert_pinned("GRU_SCORE_DIGEST", scores, GRU_SCORE_DIGEST);
}

#[test]
fn lstm_update_and_adapt_match_pinned_digests() {
    let (state, scores) = adapt_digests(&mut LstmDetector::new(adapt_config()));
    assert_pinned("LSTM_ADAPT_STATE_DIGEST", state, LSTM_ADAPT_STATE_DIGEST);
    assert_pinned("LSTM_ADAPT_SCORE_DIGEST", scores, LSTM_ADAPT_SCORE_DIGEST);
}

#[test]
fn gru_update_and_adapt_match_pinned_digests() {
    let (state, scores) = adapt_digests(&mut GruDetector::new(adapt_config()));
    assert_pinned("GRU_ADAPT_STATE_DIGEST", state, GRU_ADAPT_STATE_DIGEST);
    assert_pinned("GRU_ADAPT_SCORE_DIGEST", scores, GRU_ADAPT_SCORE_DIGEST);
}

#[test]
fn packed_lstm_bundle_text_matches_pinned_digest() {
    let msgs: Vec<SyslogMessage> = (0..200)
        .map(|i| SyslogMessage {
            timestamp: i * 60,
            host: "vpe00".into(),
            process: "rpd".into(),
            severity: Severity::Info,
            text: format!("BGP peer 10.0.{}.1 keepalive ok count {}", i % 8, i),
        })
        .collect();
    let codec = LogCodec::train(&msgs, 4);
    let mut det = LstmDetector::new(LstmDetectorConfig {
        vocab: codec.vocab_size(),
        window: 4,
        embed_dim: 6,
        hidden: 8,
        epochs: 1,
        max_train_windows: 500,
        ..Default::default()
    });
    det.fit(&[&codec.encode_stream(&msgs)]);
    let value = ModelBundle::pack(&codec, &det, 3.5, &MappingConfig::default()).to_value();
    let reparsed = ModelBundle::from_value(&value).unwrap();
    assert_eq!(reparsed.to_value(), value, "bundle text must round-trip");
    assert!(reparsed.try_unpack().is_ok(), "the packed bundle must unpack");
    assert_pinned("LSTM_BUNDLE_DIGEST", fnv1a64(value.to_string().as_bytes()), LSTM_BUNDLE_DIGEST);
}
