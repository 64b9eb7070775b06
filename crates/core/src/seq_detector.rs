//! The paper's next-template anomaly detector (§4.2), generic over its
//! recurrent cell.
//!
//! A [`RecurrentModel`] (embedding + 2 recurrent layers + dense softmax)
//! is trained on windows of k normal-period syslog templates to predict
//! the (k+1)-th. At detection time each incoming log is scored by the
//! negative log-likelihood the model assigns it given the previous k
//! logs; sweeping a threshold over this score yields the paper's
//! precision-recall curves. The paper's cell is the LSTM
//! ([`LstmDetector`]); [`GruDetector`] runs the same protocol on the GRU,
//! which carries ~25% fewer recurrent weights at the same width.
//!
//! Two training-time mechanisms from the paper are implemented:
//!
//! * **minority-pattern over-sampling** — after the initial rounds the
//!   model replays its own training data, finds normal windows it still
//!   misclassifies (the true template outside the top-g predictions),
//!   over-samples those and trains further, stopping when the training
//!   false-positive rate no longer improves;
//! * **transfer-learning adaptation** — [`AnomalyDetector::adapt`]
//!   freezes the embedding and the bottom recurrent layer and fine-tunes
//!   the top layers on a small amount of fresh data (~1 week) after a
//!   software update.

use crate::detector::{AnomalyDetector, ScoredEvent, WindowScorer};
use crate::par;
use crate::state;
use nfv_ml::sampling::oversample_indices;
use nfv_nn::checkpoint::{Checkpoint, CheckpointError};
use nfv_nn::{
    Adam, GruLayer, InferScratch, LstmLayer, RecurrentCell, RecurrentModel, SeqView,
    SequenceModelConfig, Trainer, TrainerConfig,
};
use nfv_syslog::stream::WindowSet;
use nfv_syslog::LogStream;
use nfv_tensor::act;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde_json::{json, Value};
use std::cell::RefCell;

thread_local! {
    /// The inference buffers and chunk indices of every scoring call on
    /// this thread, whatever the detector, cell or model shape: they grow
    /// to the largest chunk the thread has scored and are reused after.
    /// A scratch per detector would keep one such high-water set alive
    /// per group model, which a fleet pays for in resident memory.
    static SCORE_SCRATCH: RefCell<(InferScratch, Vec<usize>)> = RefCell::default();
}

/// Hyper-parameters of [`SeqDetector`], shared by every cell.
#[derive(Debug, Clone)]
pub struct SeqDetectorConfig {
    /// Dense vocabulary width (from the codec).
    pub vocab: usize,
    /// Window length k.
    pub window: usize,
    /// Embedding width.
    pub embed_dim: usize,
    /// Recurrent hidden width.
    pub hidden: usize,
    /// Stacked recurrent layers (the paper uses 2).
    pub layers: usize,
    /// Initial-fit epochs before over-sampling rounds.
    pub epochs: usize,
    /// Epochs per incremental monthly update.
    pub update_epochs: usize,
    /// Epochs per post-update adaptation.
    pub adapt_epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate for the initial fit.
    pub lr: f32,
    /// A training window counts as misclassified when its true next
    /// template is outside the model's top-g predictions.
    pub top_g: usize,
    /// Maximum over-sampling rounds.
    pub oversample_rounds: usize,
    /// Replication factor for misclassified windows.
    pub oversample_boost: usize,
    /// Cap on training windows (reservoir-sampled above this).
    pub max_train_windows: usize,
    /// Append the normalized inter-arrival gap to each step's input
    /// (the paper's `(m_i, t_i - t_{i-1})` tuples). Disabling this is an
    /// ablation knob.
    pub use_gap_feature: bool,
    /// Worker threads for training (deterministic gradient shards) and
    /// scoring (chunk fan-out). `0` = auto (`available_parallelism`).
    /// Results are bit-identical for every value.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
}

/// The LSTM detector's hyper-parameters.
pub type LstmDetectorConfig = SeqDetectorConfig;
/// The GRU detector's hyper-parameters.
pub type GruDetectorConfig = SeqDetectorConfig;

impl Default for SeqDetectorConfig {
    fn default() -> Self {
        SeqDetectorConfig {
            vocab: 64,
            window: 10,
            embed_dim: 16,
            hidden: 32,
            layers: 2,
            epochs: 3,
            update_epochs: 1,
            adapt_epochs: 3,
            batch_size: 64,
            lr: 5e-3,
            top_g: 5,
            oversample_rounds: 2,
            oversample_boost: 4,
            max_train_windows: 60_000,
            use_gap_feature: true,
            threads: 1,
            seed: 7,
        }
    }
}

/// Next-template anomaly detector over one recurrent cell.
pub struct SeqDetector<C: RecurrentCell> {
    cfg: SeqDetectorConfig,
    model: RecurrentModel<C>,
    rng: SmallRng,
}

/// The paper's LSTM next-template detector (name `lstm`).
pub type LstmDetector = SeqDetector<LstmLayer>;
/// The GRU next-template detector (name `gru`).
pub type GruDetector = SeqDetector<GruLayer>;

impl<C: RecurrentCell> SeqDetector<C> {
    /// Builds an untrained detector.
    pub fn new(cfg: SeqDetectorConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let model = RecurrentModel::new(
            SequenceModelConfig {
                vocab: cfg.vocab,
                embed_dim: cfg.embed_dim,
                hidden: cfg.hidden,
                layers: cfg.layers,
                use_gap_feature: cfg.use_gap_feature,
            },
            &mut rng,
        );
        SeqDetector { cfg, model, rng }
    }

    /// Builds a detector with window length `window` around a trained
    /// model (used when unpacking a deployed
    /// [`crate::bundle::ModelBundle`]); the architecture fields of the
    /// configuration come from the model.
    pub fn from_model(model: RecurrentModel<C>, window: usize) -> Self {
        let m = model.config();
        let cfg = SeqDetectorConfig {
            vocab: m.vocab,
            window,
            embed_dim: m.embed_dim,
            hidden: m.hidden,
            layers: m.layers,
            use_gap_feature: m.use_gap_feature,
            ..Default::default()
        };
        let rng = SmallRng::seed_from_u64(cfg.seed);
        SeqDetector { cfg, model, rng }
    }

    /// Read access to the underlying model (checkpointing, transfer).
    pub fn model(&self) -> &RecurrentModel<C> {
        &self.model
    }

    /// Overrides the worker-thread count (0 = auto). The serving
    /// runtime pins scoring to its single scorer thread with
    /// `set_threads(1)` so throughput claims are honestly one-core.
    pub fn set_threads(&mut self, threads: usize) {
        self.cfg.threads = threads;
    }

    /// Replaces the model weights with a teacher's (transfer-learning
    /// bootstrap: the student starts as a copy of the teacher).
    pub fn copy_weights_from(&mut self, teacher: &Self) {
        self.model = RecurrentModel::from_checkpoint(&teacher.model.to_checkpoint());
    }

    fn collect_windows(&self, streams: &[&LogStream]) -> WindowSet {
        let mut all = WindowSet::default();
        for s in streams {
            all.extend(s.windows(self.cfg.window));
        }
        all
    }

    /// The training windows of `streams`: all of them when they number
    /// at most `max_train_windows`, else a reservoir sample of that many,
    /// in sample order. The sample depends only on the window count and
    /// the RNG, so only the windows it keeps are built.
    fn training_windows(&mut self, streams: &[&LogStream]) -> WindowSet {
        let k = self.cfg.window;
        let counts: Vec<usize> = streams.iter().map(|s| s.window_count(k)).collect();
        let total: usize = counts.iter().sum();
        if total <= self.cfg.max_train_windows {
            return self.collect_windows(streams);
        }
        let idx =
            nfv_ml::sampling::reservoir_sample(0..total, self.cfg.max_train_windows, &mut self.rng);
        // starts[s] is the index of stream s's first window in the
        // concatenation of every stream's windows.
        let starts: Vec<usize> = counts
            .iter()
            .scan(0, |next, &c| {
                let start = *next;
                *next += c;
                Some(start)
            })
            .collect();
        let mut out = WindowSet::default();
        for i in idx {
            // The last stream starting at or before i: streams without
            // windows share their start with the next one.
            let s = starts.partition_point(|&start| start <= i) - 1;
            streams[s].push_window_at(k, i - starts[s], &mut out);
        }
        out
    }

    fn train_epochs(&mut self, ws: &WindowSet, epochs: usize, lr: f32) {
        let indices: Vec<usize> = (0..ws.len()).collect();
        self.train_on_indices(ws, &indices, epochs, lr);
    }

    /// Resolved worker count (`cfg.threads`, 0 = auto).
    fn threads(&self) -> usize {
        par::effective_threads(self.cfg.threads, usize::MAX)
    }

    /// Trains on the selected windows of `ws` through the shared
    /// [`Trainer`] loop: a fresh Adam instance per call (matching the
    /// paper's per-phase optimizer state), the configured batch size, and
    /// the detector's own RNG for shuffling. The trainer's shard layout
    /// is fixed, so the thread count never changes the resulting weights.
    fn train_on_indices(&mut self, ws: &WindowSet, indices: &[usize], epochs: usize, lr: f32) {
        if indices.is_empty() {
            return;
        }
        let shapes = self.model.param_shapes();
        let cfg = TrainerConfig {
            epochs,
            batch_size: self.cfg.batch_size,
            threads: self.threads(),
            ..TrainerConfig::default()
        };
        let mut trainer = Trainer::new(cfg, Adam::new(lr, &shapes), &shapes);
        let view = SeqView { ids: &ws.ids, gaps: &ws.gaps, targets: &ws.targets };
        if let Err(e) = trainer.fit_indices(&mut self.model, &view, indices, &mut self.rng) {
            eprintln!("{} training aborted: {}", C::DETECTOR, e);
        }
    }

    /// Runs batched inference over `ws` in fixed 512-window chunks fanned
    /// out across the configured worker threads, mapping every window
    /// through `f(global_window_index, target, probs_row)` and returning
    /// the results in window order.
    ///
    /// Chunk boundaries are fixed and each output row depends only on its
    /// own window (the forward math is row-independent), so the result is
    /// bit-identical to a serial pass for any thread count. Each worker,
    /// and the calling thread, runs its chunks through its thread's
    /// scoring scratch.
    fn predict_map<R: Send>(
        &self,
        ws: &WindowSet,
        f: impl Fn(usize, usize, &[f32]) -> R + Sync,
    ) -> Vec<R> {
        self.predict_map_threads(ws, self.threads(), f)
    }

    /// [`SeqDetector::predict_map`] with an explicit worker count —
    /// the cross-vPE batched path passes the fleet-level fan-out here
    /// instead of the detector's own configured threads. Any value
    /// yields the same bits.
    fn predict_map_threads<R: Send>(
        &self,
        ws: &WindowSet,
        threads: usize,
        f: impl Fn(usize, usize, &[f32]) -> R + Sync,
    ) -> Vec<R> {
        const CHUNK: usize = 512;
        let view = SeqView { ids: &ws.ids, gaps: &ws.gaps, targets: &[] };
        let starts: Vec<usize> = (0..ws.len()).step_by(CHUNK).collect();
        par::par_blocks(&starts, threads, |_, block| {
            // Nothing below scores again on this thread (nested pool
            // regions run GEMM panels only), so the borrow cannot clash.
            SCORE_SCRATCH.with_borrow_mut(|(scratch, chunk)| {
                let mut out = Vec::new();
                for &start in block {
                    chunk.clear();
                    chunk.extend(start..(start + CHUNK).min(ws.len()));
                    let probs = self.model.predict_probs_view(&view, chunk, scratch);
                    for (row, &global_idx) in chunk.iter().enumerate() {
                        out.push(f(global_idx, ws.targets[global_idx], probs.row(row)));
                    }
                }
                out
            })
        })
    }

    /// Indices of training windows whose target is outside the model's
    /// top-g predictions (the "minority normal patterns" of §4.2).
    fn misclassified(&self, ws: &WindowSet) -> Vec<usize> {
        let missed = self.predict_map(ws, |_, target, probs| {
            let top = nfv_tensor::vecops::top_k(probs, self.cfg.top_g);
            !top.contains(&target)
        });
        missed.iter().enumerate().filter_map(|(i, &m)| m.then_some(i)).collect()
    }

    fn fit_windows(&mut self, ws: WindowSet) {
        if ws.is_empty() {
            return;
        }
        self.train_epochs(&ws, self.cfg.epochs, self.cfg.lr);

        // Minority-pattern over-sampling rounds: keep going while the
        // training false-positive rate improves.
        let mut prev_fp = usize::MAX;
        for _ in 0..self.cfg.oversample_rounds {
            let missed = self.misclassified(&ws);
            if missed.is_empty() || missed.len() >= prev_fp {
                break;
            }
            prev_fp = missed.len();
            let mix = oversample_indices(
                ws.len(),
                &missed,
                self.cfg.oversample_boost,
                0.25,
                &mut self.rng,
            );
            // Feed the over-sampled index mix straight to the trainer —
            // shuffling `mix` visits the same windows in the same order
            // as shuffling a gathered copy, without materializing it.
            self.train_on_indices(&ws, &mix, 1, self.cfg.lr * 0.5);
        }
    }

    /// Training false-positive rate on a window set (fraction of normal
    /// windows flagged at the top-g rule) — exposed for tests and the
    /// adaptation trigger.
    pub fn training_fp_rate(&self, streams: &[&LogStream]) -> f32 {
        let ws = self.collect_windows(streams);
        if ws.is_empty() {
            return 0.0;
        }
        self.misclassified(&ws).len() as f32 / ws.len() as f32
    }
}

impl<C: RecurrentCell> WindowScorer for SeqDetector<C> {
    fn window(&self) -> usize {
        self.cfg.window
    }

    /// Windows fan out through the same fixed-chunk batched forward pass
    /// as [`AnomalyDetector::score`].
    fn score_events(&self, ws: &WindowSet) -> Vec<ScoredEvent> {
        self.predict_map(ws, |global_idx, target, probs| {
            let p = probs[target].max(1e-9);
            ScoredEvent { time: ws.times[global_idx], score: -act::ln(p) }
        })
    }
}

impl<C: RecurrentCell> AnomalyDetector for SeqDetector<C> {
    fn name(&self) -> &'static str {
        C::DETECTOR
    }

    fn fit(&mut self, streams: &[&LogStream]) {
        let ws = self.training_windows(streams);
        self.fit_windows(ws);
    }

    fn update(&mut self, streams: &[&LogStream]) {
        // Incremental refreshes run at a strongly reduced learning rate:
        // the distribution is stable month over month (§4.3), and a hot
        // update rate would slowly absorb rare benign storms into
        // "normal", eroding exactly the signatures the detector exists
        // to flag.
        let ws = self.training_windows(streams);
        self.train_epochs(&ws, self.cfg.update_epochs, self.cfg.lr * 0.15);
    }

    fn adapt(&mut self, streams: &[&LogStream]) {
        // Transfer learning: keep the general sequence representation
        // (embedding + bottom recurrent layer) frozen, fine-tune the top
        // layers on the small post-update sample.
        let ws = self.training_windows(streams);
        self.model.set_frozen_bottom(2);
        self.train_epochs(&ws, self.cfg.adapt_epochs, self.cfg.lr);
        self.model.set_frozen_bottom(0);
    }

    fn score(&self, stream: &LogStream, start: u64, end: u64) -> Vec<ScoredEvent> {
        let ws = stream.windows_in(self.cfg.window, start, end, |_| true);
        self.score_events(&ws)
    }

    /// Cross-vPE batched scoring: every stream's windows are gathered
    /// into one [`WindowSet`] and run through a single chunked forward
    /// pass, so a 10k-vPE group costs a handful of large GEMM calls
    /// instead of 10k small ones. The forward math is row-independent
    /// (each probability row depends only on its own window — see
    /// [`SeqDetector::predict_map_threads`]), and windows are gathered
    /// in ascending stream order, so scattering the flat score vector
    /// back by per-stream counts reproduces the one-stream-at-a-time
    /// path bit for bit.
    fn score_batch(
        &self,
        streams: &[&LogStream],
        start: u64,
        end: u64,
        threads: usize,
    ) -> Vec<Vec<ScoredEvent>> {
        let mut all = WindowSet::default();
        let mut counts = Vec::with_capacity(streams.len());
        for s in streams {
            let before = all.len();
            all.extend(s.windows_in(self.cfg.window, start, end, |_| true));
            counts.push(all.len() - before);
        }
        let flat = self.predict_map_threads(
            &all,
            par::effective_threads(threads, usize::MAX),
            |global_idx, target, probs| {
                let p = probs[target].max(1e-9);
                ScoredEvent { time: all.times[global_idx], score: -act::ln(p) }
            },
        );
        let mut out = Vec::with_capacity(streams.len());
        let mut off = 0;
        for c in counts {
            out.push(flat[off..off + c].to_vec());
            off += c;
        }
        out
    }

    fn to_state(&self) -> Value {
        json!({
            "detector": self.name(),
            "model": self.model.to_checkpoint().to_value(),
            "rng": state::rng_value(&self.rng),
        })
    }

    fn load_state(&mut self, st: &Value) -> Result<(), CheckpointError> {
        state::check_tag(st, self.name())?;
        let ckpt = Checkpoint::from_value(state::require(st, "model")?)?;
        let model = RecurrentModel::try_from_checkpoint(&ckpt)?;
        if model.config().vocab != self.cfg.vocab {
            return Err(CheckpointError::Invalid(format!(
                "{} state vocab {} does not match configured {}",
                C::DETECTOR,
                model.config().vocab,
                self.cfg.vocab
            )));
        }
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

    /// Instantiates generic `fn name<C: RecurrentCell>()` tests once per
    /// cell, as `tests::lstm::name` and `tests::gru::name`.
    macro_rules! cell_tests {
        ($($name:ident),* $(,)?) => {
            mod lstm {
                $(#[test] fn $name() { super::$name::<nfv_nn::LstmLayer>() })*
            }
            mod gru {
                $(#[test] fn $name() { super::$name::<nfv_nn::GruLayer>() })*
            }
        };
    }

    cell_tests!(
        anomalous_burst_scores_above_normal_traffic,
        fit_reduces_training_fp_rate,
        copy_weights_matches_teacher_scores,
        adapt_learns_shifted_distribution_quickly,
        adapt_keeps_frozen_bottom_weights_bit_identical,
        score_window_respects_bounds,
        empty_training_data_is_harmless,
        state_roundtrip_is_bit_identical,
        load_state_rejects_wrong_tag_and_vocab,
        score_batch_matches_per_stream_at_any_thread_count,
        sampled_training_windows_equal_build_then_gather,
    );

    /// A predictable cyclic stream with occasional noise, plus a burst of
    /// a never-seen template in the test period.
    fn training_stream(len: usize, seed: u64) -> LogStream {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut records = Vec::with_capacity(len);
        let mut state = 0usize;
        for i in 0..len {
            let template = if rng.gen::<f32>() < 0.1 {
                rng.gen_range(1..6)
            } else {
                state + 1 // ids 1..=5
            };
            state = (state + 1) % 5;
            records.push(LogRecord { time: i as u64 * 30, template });
        }
        LogStream::from_records(records)
    }

    fn tiny_cfg() -> SeqDetectorConfig {
        SeqDetectorConfig {
            vocab: 8,
            window: 5,
            embed_dim: 6,
            hidden: 12,
            layers: 2,
            epochs: 4,
            batch_size: 32,
            max_train_windows: 3000,
            ..Default::default()
        }
    }

    /// Several streams, one too short for any window, whose windows
    /// outnumber the cap: building only the sampled windows gives the
    /// window set, the RNG draws and the trained state of building every
    /// window and then gathering the sample.
    fn sampled_training_windows_equal_build_then_gather<C: RecurrentCell>() {
        let streams: Vec<LogStream> =
            [400, 3, 250, 0, 330].iter().map(|&n| training_stream(n, n as u64)).collect();
        let refs: Vec<&LogStream> = streams.iter().collect();
        let cfg = SeqDetectorConfig { max_train_windows: 300, epochs: 1, ..tiny_cfg() };

        let mut reference = SeqDetector::<C>::new(cfg.clone());
        let all = reference.collect_windows(&refs);
        assert!(all.len() > cfg.max_train_windows);
        let idx = nfv_ml::sampling::reservoir_sample(
            0..all.len(),
            cfg.max_train_windows,
            &mut reference.rng,
        );
        let want = all.gather(&idx);

        let mut det = SeqDetector::<C>::new(cfg.clone());
        let got = det.training_windows(&refs);
        assert_eq!(got.ids, want.ids);
        let bits = |ws: &WindowSet| -> Vec<Vec<u32>> {
            ws.gaps.iter().map(|g| g.iter().map(|x| x.to_bits()).collect()).collect()
        };
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(got.targets, want.targets);
        assert_eq!(got.times, want.times);

        // `update` through the sampled build against the reference
        // sample trained the same way.
        reference.train_epochs(&want, cfg.update_epochs, cfg.lr * 0.15);
        let mut det = SeqDetector::<C>::new(cfg);
        det.update(&refs);
        assert_eq!(det.to_state(), reference.to_state());
    }

    fn anomalous_burst_scores_above_normal_traffic<C: RecurrentCell>() {
        let train = training_stream(1200, 1);
        let mut det = SeqDetector::<C>::new(tiny_cfg());
        det.fit(&[&train]);

        // Test stream: same behaviour, then a burst of template 7 (never
        // seen in training).
        let mut records: Vec<LogRecord> = training_stream(300, 2).records().to_vec();
        let t0 = records.last().unwrap().time;
        for j in 0..5 {
            records.push(LogRecord { time: t0 + 10 + j, template: 7 });
        }
        let test = LogStream::from_records(records);
        let events = det.score(&test, 0, u64::MAX);

        let burst_scores: Vec<f32> =
            events.iter().filter(|e| e.time > t0).map(|e| e.score).collect();
        let normal_scores: Vec<f32> =
            events.iter().filter(|e| e.time <= t0).map(|e| e.score).collect();
        assert!(!burst_scores.is_empty());
        let normal_mean = normal_scores.iter().sum::<f32>() / normal_scores.len() as f32;
        let burst_min = burst_scores.iter().cloned().fold(f32::MAX, f32::min);
        assert!(
            burst_min > normal_mean + 1.0,
            "burst min {} vs normal mean {}",
            burst_min,
            normal_mean
        );
    }

    fn fit_reduces_training_fp_rate<C: RecurrentCell>() {
        let train = training_stream(1500, 3);
        let mut det = SeqDetector::<C>::new(tiny_cfg());
        let before = det.training_fp_rate(&[&train]);
        det.fit(&[&train]);
        let after = det.training_fp_rate(&[&train]);
        assert!(after < before * 0.6, "fp rate {} -> {}", before, after);
        assert!(after < 0.15, "post-fit fp rate {}", after);
    }

    fn copy_weights_matches_teacher_scores<C: RecurrentCell>() {
        let train = training_stream(800, 4);
        let mut teacher = SeqDetector::<C>::new(tiny_cfg());
        teacher.fit(&[&train]);
        let mut student = SeqDetector::<C>::new(SeqDetectorConfig { seed: 99, ..tiny_cfg() });
        student.copy_weights_from(&teacher);
        let test = training_stream(200, 5);
        let a = teacher.score(&test, 0, u64::MAX);
        let b = student.score(&test, 0, u64::MAX);
        assert_eq!(a, b);
    }

    fn adapt_learns_shifted_distribution_quickly<C: RecurrentCell>() {
        // Train on templates 1..=5; the "update" remaps chatter to 6..7.
        let train = training_stream(1200, 6);
        let mut det = SeqDetector::<C>::new(tiny_cfg());
        det.fit(&[&train]);

        let shifted = LogStream::from_records(
            (0..400).map(|i| LogRecord { time: i as u64 * 30, template: 6 + (i % 2) }).collect(),
        );
        let fp_before = det.training_fp_rate(&[&shifted]);
        det.adapt(&[&shifted]);
        let fp_after = det.training_fp_rate(&[&shifted]);
        assert!(
            fp_after < fp_before * 0.5,
            "adaptation should cut the false-alarm surge: {} -> {}",
            fp_before,
            fp_after
        );
    }

    fn adapt_keeps_frozen_bottom_weights_bit_identical<C: RecurrentCell>() {
        use nfv_nn::Trainable;

        let train = training_stream(900, 10);
        let mut det = SeqDetector::<C>::new(tiny_cfg());
        det.fit(&[&train]);

        let before: Vec<Vec<f32>> =
            det.model().params().iter().map(|p| p.as_slice().to_vec()).collect();

        let shifted = LogStream::from_records(
            (0..300).map(|i| LogRecord { time: i as u64 * 30, template: 6 + (i % 2) }).collect(),
        );
        det.adapt(&[&shifted]);

        let after = det.model().params();
        // `adapt` freezes the first two components: the embedding table
        // (1 matrix) and the bottom recurrent layer (wx, wh, b). With Adam's
        // per-parameter step clocks those four must not move by a single
        // bit — not even via moment-estimate drift.
        for (i, (b, a)) in before.iter().zip(after.iter()).enumerate().take(4) {
            assert_eq!(b.as_slice(), a.as_slice(), "frozen parameter {} changed during adapt", i);
        }
        let unfrozen_moved =
            before.iter().zip(after.iter()).skip(4).any(|(b, a)| b.as_slice() != a.as_slice());
        assert!(unfrozen_moved, "adapt should still update the unfrozen top layers");
    }

    fn score_window_respects_bounds<C: RecurrentCell>() {
        let train = training_stream(600, 8);
        let mut det = SeqDetector::<C>::new(tiny_cfg());
        det.fit(&[&train]);
        let events = det.score(&train, 3000, 9000);
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| (3000..9000).contains(&e.time)));
    }

    fn empty_training_data_is_harmless<C: RecurrentCell>() {
        let mut det = SeqDetector::<C>::new(tiny_cfg());
        det.fit(&[]);
        let empty = LogStream::from_records(vec![]);
        assert!(det.score(&empty, 0, u64::MAX).is_empty());
    }

    fn state_roundtrip_is_bit_identical<C: RecurrentCell>() {
        let train = training_stream(900, 4);
        let mut det = SeqDetector::<C>::new(tiny_cfg());
        det.fit(&[&train]);

        let st = det.to_state();
        let mut restored = SeqDetector::<C>::new(tiny_cfg());
        restored.load_state(&st).unwrap();

        let test = training_stream(300, 5);
        let a = det.score(&test, 0, u64::MAX);
        let b = restored.score(&test, 0, u64::MAX);
        assert_eq!(a, b, "restored detector must score identically");
        // And the restored RNG must continue the same trajectory: a
        // further update from identical state stays bit-identical.
        det.update(&[&test]);
        restored.update(&[&test]);
        let a2 = det.score(&test, 0, u64::MAX);
        let b2 = restored.score(&test, 0, u64::MAX);
        assert_eq!(a2, b2, "post-restore updates must stay on the same trajectory");
    }

    fn load_state_rejects_wrong_tag_and_vocab<C: RecurrentCell>() {
        let mut det = SeqDetector::<C>::new(tiny_cfg());
        // The other cell's state differs from this one only in its tag.
        let cfg = SeqDetectorConfig { vocab: 8, ..Default::default() };
        let others: [Box<dyn AnomalyDetector>; 2] =
            [Box::new(LstmDetector::new(cfg.clone())), Box::new(GruDetector::new(cfg))];
        for other in others.iter().filter(|o| o.name() != C::DETECTOR) {
            assert!(det.load_state(&other.to_state()).is_err(), "wrong tag must be rejected");
        }

        let bigger = SeqDetector::<C>::new(SeqDetectorConfig { vocab: 16, ..tiny_cfg() });
        let st = bigger.to_state();
        assert!(det.load_state(&st).is_err(), "vocab mismatch must be rejected");
    }

    /// One scoring scratch per thread serves every detector: scoring an
    /// LSTM, then a GRU of other widths, depth and window, then the LSTM
    /// again on one thread gives what a fresh thread gives, and so do the
    /// pool workers behind `score_batch`.
    #[test]
    fn per_thread_scratch_is_reused_across_cells_and_shapes() {
        let lstm = LstmDetector::new(tiny_cfg());
        let gru = GruDetector::new(SeqDetectorConfig {
            window: 3,
            embed_dim: 4,
            hidden: 7,
            layers: 3,
            use_gap_feature: false,
            ..tiny_cfg()
        });
        // Up to 1,300 records: several 512-window chunks per stream.
        let streams: Vec<LogStream> =
            (0..3).map(|s| training_stream(1300 - 400 * s, 40 + s as u64)).collect();
        let refs: Vec<&LogStream> = streams.iter().collect();
        let dets: [&dyn AnomalyDetector; 3] = [&lstm, &gru, &lstm];
        let score_all = |d: &dyn AnomalyDetector| -> Vec<Vec<ScoredEvent>> {
            refs.iter().map(|st| d.score(st, 0, u64::MAX)).collect()
        };
        let fresh: Vec<Vec<Vec<ScoredEvent>>> = dets
            .iter()
            .map(|&d| std::thread::scope(|s| s.spawn(|| score_all(d)).join().unwrap()))
            .collect();
        for (d, want) in dets.iter().zip(&fresh) {
            assert_eq!(&score_all(*d), want, "{} on a reused thread", d.name());
        }
        for threads in [1, 2, 4] {
            for (d, want) in dets.iter().zip(&fresh) {
                let batched = d.score_batch(&refs, 0, u64::MAX, threads);
                assert_eq!(&batched, want, "{} score_batch at threads={}", d.name(), threads);
            }
        }
    }

    fn score_batch_matches_per_stream_at_any_thread_count<C: RecurrentCell>() {
        let train = training_stream(1000, 6);
        let mut det = SeqDetector::<C>::new(tiny_cfg());
        det.fit(&[&train]);

        let streams: Vec<LogStream> =
            (0..3).map(|s| training_stream(400 + 100 * s, 20 + s as u64)).collect();
        let refs: Vec<&LogStream> = streams.iter().collect();
        let per_stream: Vec<Vec<ScoredEvent>> =
            refs.iter().map(|s| det.score(s, 0, u64::MAX)).collect();
        for threads in [1, 2, 4] {
            let batched = det.score_batch(&refs, 0, u64::MAX, threads);
            assert_eq!(batched, per_stream, "threads={} diverged", threads);
        }
    }
}
