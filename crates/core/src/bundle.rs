//! Deployable model bundles: codec + trained next-template model +
//! operating parameters, serialized as one JSON file so a detector can
//! be trained offline and shipped to a monitoring host (the `nfvpredict`
//! CLI's `train`/`detect` workflow). The model's checkpoint tag names
//! its recurrent cell, so LSTM and GRU bundles load through the same
//! path.
//!
//! Bundles share the checksummed envelope format of
//! [`nfv_nn::checkpoint`]: a flipped byte, truncated file, or
//! incompatible shape surfaces as a typed [`CheckpointError`] instead of
//! a panic or a silently-wrong detector, and saves are atomic. A bundle
//! whose codec and model disagree on the vocabulary, or whose window is
//! empty, is refused on unpack rather than panicking on the first
//! scored window.

use crate::codec::{LogCodec, SavedCodec};
use crate::detector::WindowScorer;
use crate::mapping::MappingConfig;
use crate::online::OnlineMonitor;
use crate::seq_detector::SeqDetector;
use nfv_nn::checkpoint::{
    atomic_write_tagged, load_with_retry, open_envelope, seal_envelope, Checkpoint, CheckpointError,
};
use nfv_nn::{GruLayer, LstmLayer, RecurrentCell, RecurrentModel};
use nfv_syslog::vocab::UNKNOWN_ID;
use serde_json::{json, Value};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// On-disk format marker for model bundles.
pub const BUNDLE_FORMAT: &str = "nfv-model-bundle";

/// A bundle unpacked once and shared across many monitors.
///
/// [`ModelBundle::try_unpack`] reconstructs the codec table and the
/// full model weight set; doing that per feed multiplies the fleet's
/// memory by the model size. `SharedModel` holds one `Arc`'d copy and
/// [`SharedModel::monitor`] stamps out per-feed monitors that borrow
/// it, so N feeds cost one model plus N × O(window) cursor state.
#[derive(Clone)]
pub struct SharedModel {
    /// The template codec, shared by every monitor.
    pub codec: Arc<LogCodec>,
    /// The trained detector, shared by every monitor.
    pub detector: Arc<dyn WindowScorer>,
    /// Calibrated anomaly threshold.
    pub threshold: f32,
    /// Clustering/mapping parameters.
    pub mapping: MappingConfig,
}

impl SharedModel {
    /// Builds a fresh per-feed monitor over the shared model. Each call
    /// is two `Arc` clones — no codec or weight duplication.
    pub fn monitor(&self) -> OnlineMonitor {
        OnlineMonitor::new_shared(
            Arc::clone(&self.codec),
            Arc::clone(&self.detector),
            self.threshold,
            self.mapping,
        )
    }
}

/// Everything needed to run detection on a fresh syslog feed.
#[derive(Debug, Clone)]
pub struct ModelBundle {
    /// The template codec.
    pub codec: SavedCodec,
    /// The trained sequence model; its tag names the recurrent cell.
    pub model: Checkpoint,
    /// Window length k used at training time.
    pub window: usize,
    /// Calibrated anomaly threshold (score >= threshold is anomalous).
    pub threshold: f32,
    /// Predictive period for ticket mapping, seconds.
    pub predictive_period: u64,
    /// Warning-cluster gap, seconds.
    pub cluster_gap: u64,
    /// Minimum anomalies per warning cluster.
    pub min_cluster: usize,
}

impl ModelBundle {
    /// Packs a trained detector (either cell), its codec, and the chosen
    /// operating threshold into a bundle.
    pub fn pack<C: RecurrentCell>(
        codec: &LogCodec,
        detector: &SeqDetector<C>,
        threshold: f32,
        mapping: &MappingConfig,
    ) -> ModelBundle {
        ModelBundle {
            codec: codec.to_saved(),
            model: detector.model().to_checkpoint(),
            window: detector.window(),
            threshold,
            predictive_period: mapping.predictive_period,
            cluster_gap: mapping.cluster_gap,
            min_cluster: mapping.min_cluster,
        }
    }

    /// Reconstructs the codec and detector, picking the recurrent cell
    /// from the checkpoint tag and validating the embedded checkpoint
    /// against the architecture its dims describe. A window of 0, or a
    /// codec that can emit a template id outside the model's vocabulary,
    /// is refused here instead of panicking on the first scored window.
    pub fn try_unpack(&self) -> Result<(LogCodec, Box<dyn WindowScorer>), CheckpointError> {
        if self.window == 0 {
            return Err(CheckpointError::Invalid("bundle window must be non-zero".into()));
        }
        let detector = match self.model.tag.as_str() {
            LstmLayer::TAG => self.detector::<LstmLayer>()?,
            GruLayer::TAG => self.detector::<GruLayer>()?,
            other => {
                return Err(CheckpointError::Invalid(format!(
                    "unknown model tag {:?} (expected {:?} or {:?})",
                    other,
                    LstmLayer::TAG,
                    GruLayer::TAG
                )))
            }
        };
        Ok((LogCodec::from_saved(&self.codec), detector))
    }

    /// The bundle's model as a `C` detector, checked against the codec's
    /// template ids.
    fn detector<C: RecurrentCell>(&self) -> Result<Box<dyn WindowScorer>, CheckpointError> {
        let model = RecurrentModel::<C>::try_from_checkpoint(&self.model)?;
        let vocab = model.config().vocab;
        let max_id = self.codec.patterns.iter().map(|&(_, id)| id).fold(UNKNOWN_ID, usize::max);
        if max_id >= vocab {
            return Err(CheckpointError::Invalid(format!(
                "codec emits template id {} but the model vocabulary is {}",
                max_id, vocab
            )));
        }
        Ok(Box::new(SeqDetector::from_model(model, self.window)))
    }

    /// Panicking convenience wrapper around [`ModelBundle::try_unpack`]
    /// for bundles known to be valid (e.g. packed in-process).
    pub fn unpack(&self) -> (LogCodec, Box<dyn WindowScorer>) {
        self.try_unpack().expect("valid model bundle")
    }

    /// Unpacks the bundle once into a [`SharedModel`] whose codec and
    /// weights can back any number of [`OnlineMonitor`]s.
    pub fn try_unpack_shared(&self) -> Result<SharedModel, CheckpointError> {
        let (codec, detector) = self.try_unpack()?;
        Ok(SharedModel {
            codec: Arc::new(codec),
            detector: Arc::from(detector),
            threshold: self.threshold,
            mapping: self.mapping(),
        })
    }

    /// The mapping configuration carried by the bundle.
    pub fn mapping(&self) -> MappingConfig {
        MappingConfig {
            predictive_period: self.predictive_period,
            cluster_gap: self.cluster_gap,
            min_cluster: self.min_cluster,
        }
    }

    /// JSON value form (the envelope payload).
    pub fn to_value(&self) -> Value {
        json!({
            "codec": self.codec.to_value(),
            "model": self.model.to_value(),
            "window": self.window,
            "threshold": self.threshold,
            "predictive_period": self.predictive_period,
            "cluster_gap": self.cluster_gap,
            "min_cluster": self.min_cluster,
        })
    }

    /// Parses the JSON value form, validating every matrix shape.
    pub fn from_value(v: &Value) -> Result<Self, CheckpointError> {
        fn get_u64(v: &Value, field: &str) -> Result<u64, CheckpointError> {
            v.get(field)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| CheckpointError::MissingField(field.to_string()))
        }
        let codec = SavedCodec::from_value(
            v.get("codec").ok_or_else(|| CheckpointError::MissingField("codec".into()))?,
        )?;
        let model = Checkpoint::from_value(
            v.get("model").ok_or_else(|| CheckpointError::MissingField("model".into()))?,
        )?;
        let threshold = v
            .get("threshold")
            .and_then(|x| x.as_f64())
            .ok_or_else(|| CheckpointError::MissingField("threshold".into()))?
            as f32;
        Ok(ModelBundle {
            codec,
            model,
            window: get_u64(v, "window")? as usize,
            threshold,
            predictive_period: get_u64(v, "predictive_period")?,
            cluster_gap: get_u64(v, "cluster_gap")?,
            min_cluster: get_u64(v, "min_cluster")? as usize,
        })
    }

    /// Parses and integrity-checks envelope text.
    pub fn from_envelope_str(text: &str) -> Result<Self, CheckpointError> {
        ModelBundle::from_value(&open_envelope(BUNDLE_FORMAT, text)?)
    }

    /// Atomically and durably writes the bundle as checksummed JSON
    /// (temp file synced before rename, directory synced after — a
    /// monitoring host hot-reloading this path can never observe a torn
    /// or rolled-back bundle after a crash).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        atomic_write_tagged(path, &seal_envelope(BUNDLE_FORMAT, self.to_value()), "bundle.save")
    }

    /// Loads a bundle written by [`ModelBundle::save`], verifying the
    /// envelope checksum and the embedded checkpoint's shapes.
    pub fn load(path: &Path) -> Result<ModelBundle, CheckpointError> {
        nfv_fail::io_check("bundle.load")?;
        ModelBundle::from_envelope_str(&std::fs::read_to_string(path)?)
    }

    /// [`ModelBundle::load`] with retry/backoff on transient i/o errors.
    pub fn load_with_retry(
        path: &Path,
        attempts: u32,
        initial_backoff: Duration,
    ) -> Result<ModelBundle, CheckpointError> {
        load_with_retry(path, attempts, initial_backoff, |text| {
            // The failpoint sits inside the retry loop so an `err(n)`
            // policy exercises the backoff path before healing.
            nfv_fail::io_check("bundle.load")?;
            ModelBundle::from_envelope_str(text)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::AnomalyDetector;
    use crate::seq_detector::{GruDetector, GruDetectorConfig, LstmDetector, LstmDetectorConfig};
    use nfv_syslog::message::Severity;
    use nfv_syslog::{LogStream, SyslogMessage};

    fn sample_messages() -> Vec<SyslogMessage> {
        (0..200)
            .map(|i| SyslogMessage {
                timestamp: i * 60,
                host: "vpe00".into(),
                process: "rpd".into(),
                severity: Severity::Info,
                text: format!("BGP peer 10.0.{}.1 keepalive ok count {}", i % 8, i),
            })
            .collect()
    }

    fn small_bundle() -> ModelBundle {
        let msgs = sample_messages();
        let codec = LogCodec::train(&msgs, 2);
        let det = LstmDetector::new(LstmDetectorConfig {
            vocab: codec.vocab_size(),
            window: 3,
            embed_dim: 4,
            hidden: 6,
            ..Default::default()
        });
        ModelBundle::pack(&codec, &det, 1.0, &MappingConfig::default())
    }

    #[test]
    fn pack_unpack_roundtrip_preserves_scores() {
        let msgs = sample_messages();
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
        let stream = codec.encode_stream(&msgs);
        det.fit(&[&stream]);

        let bundle = ModelBundle::pack(&codec, &det, 3.5, &MappingConfig::default());
        let (codec2, det2) = bundle.unpack();

        let stream2 = codec2.encode_stream(&msgs);
        assert_eq!(stream2.records(), stream.records());
        let a = det.score(&stream, 0, u64::MAX);
        let b = det2.score(&stream2, 0, u64::MAX);
        assert_eq!(a, b);
        assert_eq!(bundle.mapping().min_cluster, 2);
    }

    #[test]
    fn shared_monitors_alias_one_model_and_match_owned_behaviour() {
        let msgs = sample_messages();
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
        let stream = codec.encode_stream(&msgs);
        det.fit(&[&stream]);
        // Threshold low enough that some windows are anomalous.
        let bundle = ModelBundle::pack(&codec, &det, 0.5, &MappingConfig::default());

        let shared = bundle.try_unpack_shared().unwrap();
        let mut a = shared.monitor();
        let mut b = shared.monitor();
        assert!(Arc::ptr_eq(a.detector(), b.detector()), "monitors must share one model");

        // Both shared monitors and a conventionally unpacked one must
        // emit identical warnings over the same feed.
        let (codec_own, det_own) = bundle.try_unpack().unwrap();
        let mut owned = OnlineMonitor::new(codec_own, det_own, bundle.threshold, bundle.mapping());
        let (mut wa, mut wb, mut wo) = (Vec::new(), Vec::new(), Vec::new());
        a.observe_batch(&msgs, &mut wa);
        b.observe_batch(&msgs, &mut wb);
        owned.observe_batch(&msgs, &mut wo);
        assert_eq!(wa, wb);
        assert_eq!(wa, wo);
        assert_eq!(a.windows_scored(), owned.windows_scored());
        assert!(a.windows_scored() > 0, "feed long enough to score");
    }

    #[test]
    fn file_roundtrip() {
        let bundle = small_bundle();
        let dir = std::env::temp_dir().join("nfv_bundle_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bundle.json");
        bundle.save(&path).unwrap();
        let loaded = ModelBundle::load(&path).unwrap();
        assert_eq!(loaded.threshold, 1.0);
        assert_eq!(loaded.window, 3);
        assert!(!path.with_extension("tmp").exists());
        let (_, det2) = loaded.unpack();
        let empty = LogStream::from_records(vec![]);
        assert!(det2.score(&empty, 0, u64::MAX).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tampered_bundle_is_rejected_not_panicking() {
        let bundle = small_bundle();
        let text = seal_envelope(BUNDLE_FORMAT, bundle.to_value());

        // Truncation.
        match ModelBundle::from_envelope_str(&text[..text.len() / 2]) {
            Err(CheckpointError::Json { .. }) => {}
            other => panic!("expected Json error, got {:?}", other),
        }

        // Payload edit without re-checksumming.
        let tampered = text.replace("\"window\":3", "\"window\":4");
        assert_ne!(tampered, text);
        match ModelBundle::from_envelope_str(&tampered) {
            Err(CheckpointError::ChecksumMismatch { .. }) => {}
            other => panic!("expected ChecksumMismatch, got {:?}", other),
        }
    }

    #[test]
    fn dims_params_mismatch_is_a_typed_error() {
        let mut bundle = small_bundle();
        // Claim a different hidden width than the stored matrices have.
        bundle.model.dims[2] += 1;
        match bundle.try_unpack() {
            Err(CheckpointError::Invalid(_)) => {}
            Err(other) => panic!("expected Invalid, got {:?}", other),
            Ok(_) => panic!("expected Invalid, got Ok"),
        }
        // Drop a parameter matrix entirely.
        let mut bundle2 = small_bundle();
        bundle2.model.params.pop();
        match bundle2.try_unpack() {
            Err(CheckpointError::Invalid(_)) => {}
            Err(other) => panic!("expected Invalid, got {:?}", other),
            Ok(_) => panic!("expected Invalid, got Ok"),
        }
        // A one-class vocabulary cannot build a model.
        let mut bundle3 = small_bundle();
        bundle3.model.dims[0] = 1;
        match bundle3.try_unpack() {
            Err(CheckpointError::Invalid(_)) => {}
            Err(other) => panic!("expected Invalid, got {:?}", other),
            Ok(_) => panic!("expected Invalid, got Ok"),
        }
    }

    /// Seals `bundle` with a valid checksum and unpacks it again.
    fn unpack_sealed(bundle: &ModelBundle) -> Result<(), CheckpointError> {
        let text = seal_envelope(BUNDLE_FORMAT, bundle.to_value());
        ModelBundle::from_envelope_str(&text)?.try_unpack().map(|_| ())
    }

    /// Model dims that no stored matrix backs are a typed error, also
    /// in a bundle whose checksum is valid: vocabularies of 2^62 and
    /// 2^33, a hidden width of 2^62 and 2^40 layers.
    #[test]
    fn oversized_model_dims_are_typed_errors() {
        for (dim, value) in [(0, 1usize << 62), (2, 1 << 62), (0, 1 << 33), (3, 1 << 40)] {
            let mut bundle = small_bundle();
            bundle.model.dims[dim] = value;
            match unpack_sealed(&bundle) {
                Err(CheckpointError::Invalid(_)) => {}
                other => panic!("dims[{dim}] = {value}: expected Invalid, got {other:?}"),
            }
        }
    }

    #[test]
    fn zero_window_is_a_typed_error() {
        let mut bundle = small_bundle();
        bundle.window = 0;
        match unpack_sealed(&bundle) {
            Err(CheckpointError::Invalid(msg)) => assert!(msg.contains("window"), "{msg}"),
            other => panic!("expected Invalid, got {:?}", other),
        }
    }

    #[test]
    fn codec_id_outside_model_vocabulary_is_a_typed_error() {
        let mut bundle = small_bundle();
        let vocab = bundle.model.dims[0];
        bundle.codec.patterns.push(("chassis alarm storm detected".into(), vocab));
        match unpack_sealed(&bundle) {
            Err(CheckpointError::Invalid(msg)) => assert!(msg.contains("vocabulary"), "{msg}"),
            other => panic!("expected Invalid, got {:?}", other),
        }
    }

    #[test]
    fn gru_bundle_roundtrips_through_save_and_load() {
        let msgs = sample_messages();
        let codec = LogCodec::train(&msgs, 4);
        let mut det = GruDetector::new(GruDetectorConfig {
            vocab: codec.vocab_size(),
            window: 4,
            embed_dim: 6,
            hidden: 8,
            epochs: 1,
            max_train_windows: 500,
            ..Default::default()
        });
        let stream = codec.encode_stream(&msgs);
        det.fit(&[&stream]);

        let dir = std::env::temp_dir().join("nfv_bundle_gru_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bundle.json");
        ModelBundle::pack(&codec, &det, 3.5, &MappingConfig::default()).save(&path).unwrap();
        let loaded = ModelBundle::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.model.tag, "gru-sequence-model");

        let shared = loaded.try_unpack_shared().unwrap();
        assert_eq!(shared.detector.name(), "gru");
        assert_eq!(shared.detector.window(), 4);
        assert_eq!(shared.detector.score(&stream, 0, u64::MAX), det.score(&stream, 0, u64::MAX));
    }
}
