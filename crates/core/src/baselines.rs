//! Baseline detectors the paper compares against (§5.2): an Autoencoder
//! over TF-IDF window features, a One-Class SVM over the same features,
//! and (as a related-work extension) the PCA residual detector of Xu et
//! al. All three run behind the same [`AnomalyDetector`] interface and
//! receive the same customization/adaptation treatment as the LSTM.

use crate::detector::{AnomalyDetector, ScoredEvent};
use crate::features::{count_windows, fit_tfidf, CountWindows, WindowingConfig};
use crate::par;
use crate::state;
use nfv_ml::{OneClassSvm, OneClassSvmConfig, Pca, TfIdf};
use nfv_nn::checkpoint::{Checkpoint, CheckpointError};
use nfv_nn::{Activation, Adam, Mlp, MseRows, Trainable, Trainer, TrainerConfig};
use nfv_syslog::LogStream;
use nfv_tensor::Matrix;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde_json::{json, Value};

/// Serializes an optional TF-IDF transformer (`null` when unfitted).
fn tfidf_value(tfidf: &Option<TfIdf>) -> Value {
    tfidf.as_ref().map(|t| Value::from(t.idf())).into()
}

/// Restores [`tfidf_value`] output.
fn tfidf_from_value(v: &Value) -> Result<Option<TfIdf>, CheckpointError> {
    if v.is_null() {
        return Ok(None);
    }
    let idf = state::f32s_from_value(v, "tfidf")?;
    if idf.is_empty() {
        return Err(CheckpointError::Invalid("tfidf state has no weights".into()));
    }
    Ok(Some(TfIdf::from_idf(idf)))
}

/// Hyper-parameters of [`AutoencoderDetector`].
#[derive(Debug, Clone)]
pub struct AutoencoderConfig {
    /// Dense vocabulary width.
    pub vocab: usize,
    /// Count-window extraction.
    pub windowing: WindowingConfig,
    /// Hidden width of the encoder/decoder.
    pub hidden: usize,
    /// Bottleneck width.
    pub bottleneck: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Epochs per incremental update.
    pub update_epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Mini-batch size.
    pub batch: usize,
    /// Worker threads for the deterministic sharded trainer. `0` = auto
    /// (`available_parallelism`); weights are bit-identical regardless.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AutoencoderConfig {
    fn default() -> Self {
        AutoencoderConfig {
            vocab: 64,
            windowing: WindowingConfig::default(),
            hidden: 32,
            bottleneck: 8,
            epochs: 30,
            update_epochs: 8,
            lr: 3e-3,
            batch: 64,
            threads: 1,
            seed: 11,
        }
    }
}

/// Feed-forward autoencoder on TF-IDF features; the anomaly score is the
/// reconstruction error (Deng et al., cited by the paper).
pub struct AutoencoderDetector {
    cfg: AutoencoderConfig,
    tfidf: Option<TfIdf>,
    mlp: Mlp,
    rng: SmallRng,
}

impl AutoencoderDetector {
    /// Builds an untrained detector.
    pub fn new(cfg: AutoencoderConfig) -> AutoencoderDetector {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mlp = Mlp::new(
            &[cfg.vocab, cfg.hidden, cfg.bottleneck, cfg.hidden, cfg.vocab],
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        );
        AutoencoderDetector { cfg, tfidf: None, mlp, rng }
    }

    fn gather_features(&self, streams: &[&LogStream]) -> CountWindows {
        let mut all = CountWindows::default();
        for s in streams {
            let w = count_windows(s, self.cfg.vocab, &self.cfg.windowing, 0, u64::MAX);
            all.counts.extend(w.counts);
            all.times.extend(w.times);
        }
        all
    }

    fn train_on(&mut self, features: &[Vec<f32>], epochs: usize, lr: f32) {
        if features.is_empty() {
            return;
        }
        let shapes = self.mlp.param_shapes();
        let cfg = TrainerConfig {
            epochs,
            batch_size: self.cfg.batch,
            threads: par::effective_threads(self.cfg.threads, usize::MAX),
            ..TrainerConfig::default()
        };
        let mut trainer = Trainer::new(cfg, Adam::new(lr, &shapes), &shapes);
        // The autoencoder reconstructs its own input.
        let data = MseRows { x: features, target: features };
        if let Err(e) = trainer.fit(&mut self.mlp, &data, features.len(), &mut self.rng) {
            eprintln!("autoencoder training aborted: {}", e);
        }
    }

    fn reconstruction_error(&self, feature: &[f32]) -> f32 {
        let x = Matrix::from_vec(1, feature.len(), feature.to_vec());
        let y = self.mlp.infer(&x);
        x.as_slice().iter().zip(y.as_slice().iter()).map(|(a, b)| (a - b) * (a - b)).sum::<f32>()
            / feature.len() as f32
    }
}

impl AnomalyDetector for AutoencoderDetector {
    fn name(&self) -> &'static str {
        "autoencoder"
    }

    fn fit(&mut self, streams: &[&LogStream]) {
        let windows = self.gather_features(streams);
        if windows.counts.is_empty() {
            return;
        }
        let (tfidf, features) = fit_tfidf(&windows);
        self.tfidf = Some(tfidf);
        let epochs = self.cfg.epochs;
        let lr = self.cfg.lr;
        self.train_on(&features, epochs, lr);
    }

    fn update(&mut self, streams: &[&LogStream]) {
        let Some(tfidf) = &self.tfidf else {
            return self.fit(streams);
        };
        let windows = self.gather_features(streams);
        let features = tfidf.transform_all(&windows.counts);
        let epochs = self.cfg.update_epochs;
        let lr = self.cfg.lr * 0.5;
        self.train_on(&features, epochs, lr);
    }

    fn score(&self, stream: &LogStream, start: u64, end: u64) -> Vec<ScoredEvent> {
        let Some(tfidf) = &self.tfidf else { return Vec::new() };
        // Score with step 1 so that every message gets a window ending at
        // its timestamp — the downstream >=2-anomalies-per-minute warning
        // clustering needs per-message score granularity.
        let scoring = WindowingConfig { width: self.cfg.windowing.width, step: 1 };
        let windows = count_windows(stream, self.cfg.vocab, &scoring, start, end);
        windows
            .counts
            .iter()
            .zip(windows.times.iter())
            .map(|(counts, &time)| {
                let f = tfidf.transform(counts);
                ScoredEvent { time, score: self.reconstruction_error(&f) }
            })
            .collect()
    }

    fn to_state(&self) -> Value {
        json!({
            "detector": self.name(),
            "mlp": self.mlp.to_checkpoint().to_value(),
            "tfidf": tfidf_value(&self.tfidf),
            "rng": state::rng_value(&self.rng),
        })
    }

    fn load_state(&mut self, st: &Value) -> Result<(), CheckpointError> {
        state::check_tag(st, self.name())?;
        let ckpt = Checkpoint::from_value(state::require(st, "mlp")?)?;
        let mlp = Mlp::try_from_checkpoint(&ckpt)?;
        let tfidf = tfidf_from_value(state::require(st, "tfidf")?)?;
        self.rng = state::rng_from_value(state::require(st, "rng")?)?;
        self.mlp = mlp;
        self.tfidf = tfidf;
        Ok(())
    }
}

/// Hyper-parameters of [`OcsvmDetector`].
#[derive(Debug, Clone)]
pub struct OcsvmDetectorConfig {
    /// Dense vocabulary width.
    pub vocab: usize,
    /// Count-window extraction.
    pub windowing: WindowingConfig,
    /// The underlying SVM solver configuration.
    pub svm: OneClassSvmConfig,
    /// RNG seed (subsampling).
    pub seed: u64,
}

impl Default for OcsvmDetectorConfig {
    fn default() -> Self {
        OcsvmDetectorConfig {
            vocab: 64,
            windowing: WindowingConfig::default(),
            svm: OneClassSvmConfig::default(),
            seed: 13,
        }
    }
}

/// One-Class SVM baseline: shallow learning over TF-IDF features.
pub struct OcsvmDetector {
    cfg: OcsvmDetectorConfig,
    tfidf: Option<TfIdf>,
    model: Option<OneClassSvm>,
    /// Sliding pool of recent features used by incremental refits.
    recent: Vec<Vec<f32>>,
    rng: SmallRng,
}

impl OcsvmDetector {
    /// Builds an untrained detector.
    pub fn new(cfg: OcsvmDetectorConfig) -> OcsvmDetector {
        let rng = SmallRng::seed_from_u64(cfg.seed);
        OcsvmDetector { cfg, tfidf: None, model: None, recent: Vec::new(), rng }
    }

    fn gather_counts(&self, streams: &[&LogStream]) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        for s in streams {
            out.extend(count_windows(s, self.cfg.vocab, &self.cfg.windowing, 0, u64::MAX).counts);
        }
        out
    }

    fn refit(&mut self) {
        if self.recent.is_empty() {
            return;
        }
        self.model = Some(OneClassSvm::fit(&self.recent, &self.cfg.svm, &mut self.rng));
    }
}

impl AnomalyDetector for OcsvmDetector {
    fn name(&self) -> &'static str {
        "ocsvm"
    }

    fn fit(&mut self, streams: &[&LogStream]) {
        let counts = self.gather_counts(streams);
        if counts.is_empty() {
            return;
        }
        let tfidf = TfIdf::fit(&counts);
        self.recent = tfidf.transform_all(&counts);
        self.tfidf = Some(tfidf);
        self.refit();
    }

    fn update(&mut self, streams: &[&LogStream]) {
        let Some(tfidf) = &self.tfidf else {
            return self.fit(streams);
        };
        let counts = self.gather_counts(streams);
        let mut features = tfidf.transform_all(&counts);
        // Blend: keep a sample of the old pool so the model doesn't
        // forget, then refit (shallow models retrain cheaply).
        let keep = self.recent.len().min(self.cfg.svm.max_train_points);
        let old =
            nfv_ml::sampling::reservoir_sample(self.recent.drain(..), keep / 2, &mut self.rng);
        features.extend(old);
        self.recent = features;
        self.refit();
    }

    fn adapt(&mut self, streams: &[&LogStream]) {
        // Post-update: the old feature pool describes the pre-update
        // distribution; drop it and refit on the fresh sample only.
        let Some(tfidf) = &self.tfidf else {
            return self.fit(streams);
        };
        let counts = self.gather_counts(streams);
        self.recent = tfidf.transform_all(&counts);
        self.refit();
    }

    fn score(&self, stream: &LogStream, start: u64, end: u64) -> Vec<ScoredEvent> {
        let (Some(tfidf), Some(model)) = (&self.tfidf, &self.model) else {
            return Vec::new();
        };
        let scoring = WindowingConfig { width: self.cfg.windowing.width, step: 1 };
        let windows = count_windows(stream, self.cfg.vocab, &scoring, start, end);
        windows
            .counts
            .iter()
            .zip(windows.times.iter())
            .map(|(counts, &time)| {
                let f = tfidf.transform(counts);
                ScoredEvent { time, score: model.score(&f) }
            })
            .collect()
    }

    fn to_state(&self) -> Value {
        json!({
            "detector": self.name(),
            "tfidf": tfidf_value(&self.tfidf),
            "svm": self.model.as_ref().map(|m| json!({
                "support_vectors": state::f32_rows_value(m.support_vectors()),
                "alphas": Value::from(m.alphas()),
                "rho": m.rho(),
                "gamma": m.gamma(),
            })),
            "recent": state::f32_rows_value(&self.recent),
            "rng": state::rng_value(&self.rng),
        })
    }

    fn load_state(&mut self, st: &Value) -> Result<(), CheckpointError> {
        state::check_tag(st, self.name())?;
        let tfidf = tfidf_from_value(state::require(st, "tfidf")?)?;
        let svm = state::require(st, "svm")?;
        let model = if svm.is_null() {
            None
        } else {
            let sv = state::f32_rows_from_value(state::require(svm, "support_vectors")?, "svm")?;
            let alphas = state::f32s_from_value(state::require(svm, "alphas")?, "svm")?;
            let rho = state::require(svm, "rho")?
                .as_f64()
                .ok_or_else(|| CheckpointError::MissingField("rho".into()))?
                as f32;
            let gamma = state::require(svm, "gamma")?
                .as_f64()
                .ok_or_else(|| CheckpointError::MissingField("gamma".into()))?
                as f32;
            if sv.len() != alphas.len() {
                return Err(CheckpointError::Invalid(format!(
                    "svm state: {} support vectors vs {} alphas",
                    sv.len(),
                    alphas.len()
                )));
            }
            if sv.windows(2).any(|w| w[0].len() != w[1].len()) {
                return Err(CheckpointError::Invalid("svm state: ragged support vectors".into()));
            }
            Some(OneClassSvm::from_parts(sv, alphas, rho, gamma))
        };
        let recent = state::f32_rows_from_value(state::require(st, "recent")?, "recent")?;
        self.rng = state::rng_from_value(state::require(st, "rng")?)?;
        self.tfidf = tfidf;
        self.model = model;
        self.recent = recent;
        Ok(())
    }
}

/// Hyper-parameters of [`PcaDetector`].
#[derive(Debug, Clone)]
pub struct PcaDetectorConfig {
    /// Dense vocabulary width.
    pub vocab: usize,
    /// Count-window extraction.
    pub windowing: WindowingConfig,
    /// Number of principal components retained.
    pub components: usize,
    /// RNG seed (power iteration start vectors).
    pub seed: u64,
}

impl Default for PcaDetectorConfig {
    fn default() -> Self {
        PcaDetectorConfig {
            vocab: 64,
            windowing: WindowingConfig::default(),
            components: 6,
            seed: 17,
        }
    }
}

/// PCA residual detector (Xu et al., SOSP '09) — extension baseline.
pub struct PcaDetector {
    cfg: PcaDetectorConfig,
    tfidf: Option<TfIdf>,
    model: Option<Pca>,
    rng: SmallRng,
}

impl PcaDetector {
    /// Builds an untrained detector.
    pub fn new(cfg: PcaDetectorConfig) -> PcaDetector {
        let rng = SmallRng::seed_from_u64(cfg.seed);
        PcaDetector { cfg, tfidf: None, model: None, rng }
    }
}

impl AnomalyDetector for PcaDetector {
    fn name(&self) -> &'static str {
        "pca"
    }

    fn fit(&mut self, streams: &[&LogStream]) {
        let mut counts = Vec::new();
        for s in streams {
            counts
                .extend(count_windows(s, self.cfg.vocab, &self.cfg.windowing, 0, u64::MAX).counts);
        }
        if counts.is_empty() {
            return;
        }
        let tfidf = TfIdf::fit(&counts);
        let features = tfidf.transform_all(&counts);
        self.model = Some(Pca::fit(&features, self.cfg.components, &mut self.rng));
        self.tfidf = Some(tfidf);
    }

    fn update(&mut self, streams: &[&LogStream]) {
        // PCA refits cheaply on fresh data.
        self.fit(streams);
    }

    fn score(&self, stream: &LogStream, start: u64, end: u64) -> Vec<ScoredEvent> {
        let (Some(tfidf), Some(model)) = (&self.tfidf, &self.model) else {
            return Vec::new();
        };
        let scoring = WindowingConfig { width: self.cfg.windowing.width, step: 1 };
        let windows = count_windows(stream, self.cfg.vocab, &scoring, start, end);
        windows
            .counts
            .iter()
            .zip(windows.times.iter())
            .map(|(counts, &time)| {
                let f = tfidf.transform(counts);
                ScoredEvent { time, score: model.residual_sq(&f) }
            })
            .collect()
    }

    fn to_state(&self) -> Value {
        json!({
            "detector": self.name(),
            "tfidf": tfidf_value(&self.tfidf),
            "pca": self.model.as_ref().map(|m| json!({
                "mean": Value::from(m.mean()),
                "components": state::f32_rows_value(m.components()),
                "explained": Value::from(m.explained_variance()),
            })),
            "rng": state::rng_value(&self.rng),
        })
    }

    fn load_state(&mut self, st: &Value) -> Result<(), CheckpointError> {
        state::check_tag(st, self.name())?;
        let tfidf = tfidf_from_value(state::require(st, "tfidf")?)?;
        let pca = state::require(st, "pca")?;
        let model = if pca.is_null() {
            None
        } else {
            let mean = state::f32s_from_value(state::require(pca, "mean")?, "pca")?;
            let components = state::f32_rows_from_value(state::require(pca, "components")?, "pca")?;
            let explained = state::f32s_from_value(state::require(pca, "explained")?, "pca")?;
            if components.len() != explained.len()
                || components.iter().any(|c| c.len() != mean.len())
            {
                return Err(CheckpointError::Invalid("pca state: inconsistent shapes".into()));
            }
            Some(Pca::from_parts(mean, components, explained))
        };
        self.rng = state::rng_from_value(state::require(st, "rng")?)?;
        self.tfidf = tfidf;
        self.model = model;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfv_syslog::LogRecord;
    use rand::Rng;

    /// Normal stream over templates 1..=5 with mild noise; anomalies are
    /// bursts of template 7.
    fn normal_stream(len: usize, seed: u64) -> LogStream {
        let mut rng = SmallRng::seed_from_u64(seed);
        LogStream::from_records(
            (0..len)
                .map(|i| LogRecord {
                    time: i as u64 * 20,
                    template: if rng.gen::<f32>() < 0.15 {
                        rng.gen_range(1..6)
                    } else {
                        1 + (i % 5)
                    },
                })
                .collect(),
        )
    }

    fn stream_with_burst(len: usize, seed: u64) -> (LogStream, u64) {
        let mut records = normal_stream(len, seed).records().to_vec();
        let t0 = records.last().unwrap().time;
        for j in 0..40 {
            records.push(LogRecord { time: t0 + 5 + j, template: 7 });
        }
        (LogStream::from_records(records), t0)
    }

    fn small_windowing() -> WindowingConfig {
        WindowingConfig { width: 16, step: 4 }
    }

    fn check_burst_detected(det: &mut dyn AnomalyDetector) {
        let train = normal_stream(1500, 1);
        det.fit(&[&train]);
        let (test, t0) = stream_with_burst(400, 2);
        let events = det.score(&test, 0, u64::MAX);
        assert!(!events.is_empty(), "{}: no events", det.name());
        let burst_max =
            events.iter().filter(|e| e.time > t0).map(|e| e.score).fold(f32::MIN, f32::max);
        let normal: Vec<f32> = events.iter().filter(|e| e.time <= t0).map(|e| e.score).collect();
        let normal_q90 = {
            let mut v = normal.clone();
            v.sort_by(f32::total_cmp);
            v[(v.len() as f32 * 0.9) as usize]
        };
        assert!(
            burst_max > normal_q90 * 1.5 || burst_max > normal_q90 + 0.05,
            "{}: burst {} vs normal q90 {}",
            det.name(),
            burst_max,
            normal_q90
        );
    }

    #[test]
    fn autoencoder_detects_burst() {
        let mut det = AutoencoderDetector::new(AutoencoderConfig {
            vocab: 8,
            windowing: small_windowing(),
            hidden: 12,
            bottleneck: 3,
            epochs: 20,
            ..Default::default()
        });
        check_burst_detected(&mut det);
    }

    #[test]
    fn ocsvm_detects_burst() {
        let mut det = OcsvmDetector::new(OcsvmDetectorConfig {
            vocab: 8,
            windowing: small_windowing(),
            ..Default::default()
        });
        check_burst_detected(&mut det);
    }

    #[test]
    fn pca_detects_burst() {
        let mut det = PcaDetector::new(PcaDetectorConfig {
            vocab: 8,
            windowing: small_windowing(),
            components: 3,
            ..Default::default()
        });
        check_burst_detected(&mut det);
    }

    #[test]
    fn unfitted_detectors_return_no_events() {
        let (test, _) = stream_with_burst(100, 3);
        let ae = AutoencoderDetector::new(AutoencoderConfig::default());
        let svm = OcsvmDetector::new(OcsvmDetectorConfig::default());
        let pca = PcaDetector::new(PcaDetectorConfig::default());
        assert!(ae.score(&test, 0, u64::MAX).is_empty());
        assert!(svm.score(&test, 0, u64::MAX).is_empty());
        assert!(pca.score(&test, 0, u64::MAX).is_empty());
    }

    #[test]
    fn update_keeps_detectors_functional() {
        let train = normal_stream(1200, 4);
        let fresh = normal_stream(600, 5);
        let mut det = OcsvmDetector::new(OcsvmDetectorConfig {
            vocab: 8,
            windowing: small_windowing(),
            ..Default::default()
        });
        det.fit(&[&train]);
        det.update(&[&fresh]);
        let (test, t0) = stream_with_burst(300, 6);
        let events = det.score(&test, 0, u64::MAX);
        let burst_max =
            events.iter().filter(|e| e.time > t0).map(|e| e.score).fold(f32::MIN, f32::max);
        let normal_mean = {
            let v: Vec<f32> = events.iter().filter(|e| e.time <= t0).map(|e| e.score).collect();
            v.iter().sum::<f32>() / v.len() as f32
        };
        assert!(burst_max > normal_mean, "burst {} vs normal {}", burst_max, normal_mean);
    }
}
