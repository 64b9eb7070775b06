//! HMM anomaly detector — the related-work extension baseline (HMM
//! failure prediction a la Liang et al. / Salfner & Malek, cited in §2
//! of the paper).
//!
//! A discrete HMM is trained on normal template windows; an incoming
//! log is scored by the negative log of its one-step predictive
//! probability under the model, mirroring the LSTM detector's scoring
//! so the two are directly comparable.

use crate::detector::{AnomalyDetector, ScoredEvent};
use crate::state;
use nfv_ml::hmm::{Hmm, HmmConfig};
use nfv_nn::checkpoint::CheckpointError;
use nfv_syslog::LogStream;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde_json::{json, Value};

/// Hyper-parameters of [`HmmDetector`].
#[derive(Debug, Clone)]
pub struct HmmDetectorConfig {
    /// Dense vocabulary width.
    pub vocab: usize,
    /// Window length k (the HMM scores k+1-length sequences).
    pub window: usize,
    /// Hidden state count.
    pub states: usize,
    /// Baum-Welch iterations per (re)fit.
    pub iters: usize,
    /// Cap on training windows.
    pub max_train_windows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HmmDetectorConfig {
    fn default() -> Self {
        HmmDetectorConfig {
            vocab: 64,
            window: 10,
            states: 10,
            iters: 15,
            max_train_windows: 20_000,
            seed: 23,
        }
    }
}

/// Discrete-HMM anomaly detector.
pub struct HmmDetector {
    cfg: HmmDetectorConfig,
    model: Option<Hmm>,
    rng: SmallRng,
}

impl HmmDetector {
    /// Builds an untrained detector.
    pub fn new(cfg: HmmDetectorConfig) -> HmmDetector {
        let rng = SmallRng::seed_from_u64(cfg.seed);
        HmmDetector { cfg, model: None, rng }
    }

    fn training_sequences(&mut self, streams: &[&LogStream]) -> Vec<Vec<usize>> {
        let mut seqs = Vec::new();
        for s in streams {
            let ws = s.windows(self.cfg.window);
            for (ids, &target) in ws.ids.iter().zip(ws.targets.iter()) {
                let mut seq = ids.clone();
                seq.push(target);
                seqs.push(seq);
            }
        }
        if seqs.len() > self.cfg.max_train_windows {
            seqs = nfv_ml::sampling::reservoir_sample(
                seqs.into_iter(),
                self.cfg.max_train_windows,
                &mut self.rng,
            );
        }
        seqs
    }
}

impl AnomalyDetector for HmmDetector {
    fn name(&self) -> &'static str {
        "hmm"
    }

    fn fit(&mut self, streams: &[&LogStream]) {
        let seqs = self.training_sequences(streams);
        if seqs.is_empty() {
            return;
        }
        let cfg = HmmConfig { states: self.cfg.states, iters: self.cfg.iters };
        self.model = Some(Hmm::fit(&seqs, self.cfg.vocab, &cfg, &mut self.rng));
    }

    fn update(&mut self, streams: &[&LogStream]) {
        // Baum-Welch refits are cheap at this scale; retrain on the
        // fresh data (shallow-model treatment, like the OC-SVM).
        self.fit(streams);
    }

    fn score(&self, stream: &LogStream, start: u64, end: u64) -> Vec<ScoredEvent> {
        let Some(model) = &self.model else { return Vec::new() };
        let ws = stream.windows_in(self.cfg.window, start, end);
        ws.ids
            .iter()
            .zip(ws.targets.iter())
            .zip(ws.times.iter())
            .map(|((ids, &target), &time)| {
                let mut seq = ids.clone();
                seq.push(target);
                ScoredEvent { time, score: model.last_symbol_nll(&seq) as f32 }
            })
            .collect()
    }

    fn to_state(&self) -> Value {
        json!({
            "detector": self.name(),
            "hmm": self.model.as_ref().map(|m| json!({
                "pi": Value::from(m.pi()),
                "a": state::f64_rows_value(m.transition()),
                "b": state::f64_rows_value(m.emission()),
            })),
            "rng": state::rng_value(&self.rng),
        })
    }

    fn load_state(&mut self, st: &Value) -> Result<(), CheckpointError> {
        state::check_tag(st, self.name())?;
        let hmm = state::require(st, "hmm")?;
        let model = if hmm.is_null() {
            None
        } else {
            let pi = state::f64s_from_value(state::require(hmm, "pi")?, "hmm")?;
            let a = state::f64_rows_from_value(state::require(hmm, "a")?, "hmm")?;
            let b = state::f64_rows_from_value(state::require(hmm, "b")?, "hmm")?;
            let s_n = pi.len();
            let square = a.len() == s_n && a.iter().all(|row| row.len() == s_n);
            let emission = b.len() == s_n
                && !b.is_empty()
                && b.iter().all(|row| !row.is_empty() && row.len() == b[0].len());
            if s_n == 0 || !square || !emission {
                return Err(CheckpointError::Invalid("hmm state: inconsistent shapes".into()));
            }
            Some(Hmm::from_parts(pi, a, b))
        };
        self.rng = state::rng_from_value(state::require(st, "rng")?)?;
        self.model = model;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfv_syslog::LogRecord;
    use rand::Rng;

    fn cyclic_stream(len: usize, seed: u64) -> LogStream {
        let mut rng = SmallRng::seed_from_u64(seed);
        LogStream::from_records(
            (0..len)
                .map(|i| LogRecord {
                    time: i as u64 * 30,
                    template: if rng.gen::<f32>() < 0.1 {
                        rng.gen_range(1..5)
                    } else {
                        1 + (i % 4)
                    },
                })
                .collect(),
        )
    }

    #[test]
    fn flags_unseen_template_bursts() {
        let train = cyclic_stream(1500, 1);
        let mut det = HmmDetector::new(HmmDetectorConfig {
            vocab: 8,
            window: 5,
            states: 6,
            iters: 15,
            ..Default::default()
        });
        det.fit(&[&train]);

        let mut records = cyclic_stream(300, 2).records().to_vec();
        let t0 = records.last().unwrap().time;
        for j in 0..5 {
            records.push(LogRecord { time: t0 + 10 + j, template: 7 });
        }
        let test = LogStream::from_records(records);
        let events = det.score(&test, 0, u64::MAX);
        let burst_min =
            events.iter().filter(|e| e.time > t0).map(|e| e.score).fold(f32::MAX, f32::min);
        let normal: Vec<f32> = events.iter().filter(|e| e.time <= t0).map(|e| e.score).collect();
        let normal_mean = normal.iter().sum::<f32>() / normal.len() as f32;
        assert!(
            burst_min > normal_mean + 1.0,
            "burst min {} vs normal mean {}",
            burst_min,
            normal_mean
        );
    }

    #[test]
    fn unfitted_detector_returns_no_events() {
        let det = HmmDetector::new(HmmDetectorConfig::default());
        let s = cyclic_stream(50, 3);
        assert!(det.score(&s, 0, u64::MAX).is_empty());
    }

    #[test]
    fn update_refits_without_panicking() {
        let mut det = HmmDetector::new(HmmDetectorConfig {
            vocab: 8,
            window: 4,
            states: 4,
            iters: 5,
            ..Default::default()
        });
        det.fit(&[&cyclic_stream(400, 4)]);
        det.update(&[&cyclic_stream(400, 5)]);
        assert!(!det.score(&cyclic_stream(100, 6), 0, u64::MAX).is_empty());
    }
}
