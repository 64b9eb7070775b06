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
use std::ops::Range;

/// Windows per forward-pass chunk. Chunk boundaries are fixed multiples
/// of this in a pass's window order, whatever the thread count.
const CHUNK: usize = 512;

/// The buffers every scoring call on one thread runs its chunks through,
/// whatever the detector, cell or model shape: they grow to the largest
/// chunk the thread has scored and are reused after. A scratch per
/// detector would keep one such high-water set alive per group model,
/// which a fleet pays for in resident memory.
#[derive(Default)]
struct ScoreScratch {
    infer: InferScratch,
    /// The chunk's window indices into the set it reads.
    idx: Vec<usize>,
    /// The windows of a stream chunk, and the gap feature of each record
    /// they hold.
    rows: WindowSet,
    gaps: Vec<f32>,
}

thread_local! {
    static SCORE_SCRATCH: RefCell<ScoreScratch> = RefCell::default();
}

/// Where a scoring pass reads its windows.
#[derive(Clone, Copy)]
enum Windows<'a> {
    /// A prebuilt set: one part, the set in order.
    Built(&'a WindowSet),
    /// The windows of each stream's target range (see
    /// [`LogStream::window_targets`]), stream after stream: one part per
    /// stream. Each chunk builds its own windows.
    Streams { k: usize, streams: &'a [&'a LogStream], targets: &'a [Range<usize>] },
}

impl<'a> Windows<'a> {
    /// The set holding windows `chunk` of this source's window order
    /// (`ends` as in [`SeqDetector::score_chunks`]), and their indices in
    /// it in `idx`: a prebuilt set itself, or `rows`, rebuilt from the
    /// streams with `gaps` as their gap buffer.
    fn chunk<'r>(
        self,
        ends: &[usize],
        chunk: Range<usize>,
        idx: &mut Vec<usize>,
        rows: &'r mut WindowSet,
        gaps: &mut Vec<f32>,
    ) -> &'r WindowSet
    where
        'a: 'r,
    {
        idx.clear();
        match self {
            Windows::Built(ws) => {
                idx.extend(chunk);
                ws
            }
            Windows::Streams { k, streams, targets } => {
                rows.clear();
                let mut m = ends.partition_point(|&e| e <= chunk.start);
                let mut at = chunk.start;
                while at < chunk.end {
                    // Stream m's windows are [ends[m] - len, ends[m]).
                    let skip = at + targets[m].len() - ends[m];
                    let take = ends[m].min(chunk.end) - at;
                    let t0 = targets[m].start + skip;
                    streams[m].push_windows(k, t0..t0 + take, gaps, rows);
                    at += take;
                    m += 1;
                }
                idx.extend(0..rows.len());
                rows
            }
        }
    }
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

    /// Runs the inference pass over every window of `src` in fixed
    /// [`CHUNK`]-window chunks fanned out over up to `threads` workers,
    /// mapping each window through `f(target, time, probs_row)`. `ends`
    /// holds the exclusive end of each of `src`'s parts in its window
    /// order; the result is one vector per part, in window order.
    ///
    /// Chunk boundaries are fixed and each output row depends only on its
    /// own window (the forward math is row-independent), so the result is
    /// bit-identical to a serial pass for any thread count. Each worker,
    /// and the calling thread, builds and scores its chunks in its
    /// thread's [`ScoreScratch`], and writes each part's results straight
    /// into that part's vector; only a part that a worker's block
    /// boundary cuts is joined afterwards.
    fn score_chunks<R: Send>(
        &self,
        src: Windows<'_>,
        ends: &[usize],
        threads: usize,
        f: impl Fn(usize, u64, &[f32]) -> R + Sync,
    ) -> Vec<Vec<R>> {
        let mut out: Vec<Vec<R>> = ends.iter().map(|_| Vec::new()).collect();
        let n = ends.last().copied().unwrap_or(0);
        if n == 0 {
            return out;
        }
        let starts: Vec<usize> = (0..n).step_by(CHUNK).collect();
        let pieces = par::par_blocks(&starts, threads, |_, block| {
            let block_end = (block[block.len() - 1] + CHUNK).min(n);
            // The block's results, cut where a part ends: (part, results).
            let mut pieces = Vec::new();
            let mut next = block[0]; // window-order index of the next result
            let mut part = ends.partition_point(|&e| e <= next);
            let mut piece = Vec::with_capacity(ends[part].min(block_end) - next);
            // Nothing below scores again on this thread (nested pool
            // regions run GEMM panels only), so the borrow cannot clash.
            SCORE_SCRATCH.with_borrow_mut(|s| {
                for &start in block {
                    let chunk = start..(start + CHUNK).min(n);
                    let ws = src.chunk(ends, chunk, &mut s.idx, &mut s.rows, &mut s.gaps);
                    let view = SeqView { ids: &ws.ids, gaps: &ws.gaps, targets: &[] };
                    let probs = self.model.predict_probs_view(&view, &s.idx, &mut s.infer);
                    for (row, &i) in s.idx.iter().enumerate() {
                        while next == ends[part] {
                            pieces.push((part, std::mem::take(&mut piece)));
                            part += 1;
                            piece = Vec::with_capacity(ends[part].min(block_end) - next);
                        }
                        piece.push(f(ws.targets[i], ws.times[i], probs.row(row)));
                        next += 1;
                    }
                }
            });
            pieces.push((part, piece));
            pieces
        });
        for (part, mut piece) in pieces {
            if out[part].is_empty() {
                out[part] = piece;
            } else {
                out[part].append(&mut piece);
            }
        }
        out
    }

    /// [`SeqDetector::score_chunks`] over one prebuilt set on the
    /// detector's own threads.
    fn score_built<R: Send>(
        &self,
        ws: &WindowSet,
        f: impl Fn(usize, u64, &[f32]) -> R + Sync,
    ) -> Vec<R> {
        let mut parts = self.score_chunks(Windows::Built(ws), &[ws.len()], self.threads(), f);
        parts.pop().expect("one part")
    }

    /// Indices of training windows whose target is outside the model's
    /// top-g predictions (the "minority normal patterns" of §4.2).
    fn misclassified(&self, ws: &WindowSet) -> Vec<usize> {
        let missed = self.score_built(ws, |target, _, probs| {
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
}

impl<C: RecurrentCell> WindowScorer for SeqDetector<C> {
    fn window(&self) -> usize {
        self.cfg.window
    }

    /// Windows fan out through the same fixed-chunk batched forward pass
    /// as [`AnomalyDetector::score`].
    fn score_events(&self, ws: &WindowSet) -> Vec<ScoredEvent> {
        self.score_built(ws, score_event)
    }
}

/// A window's anomaly score: the negative log-likelihood of its target.
fn score_event(target: usize, time: u64, probs: &[f32]) -> ScoredEvent {
    let p = probs[target].max(1e-9);
    ScoredEvent { time, score: -act::ln(p) }
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
        let ws = stream.windows_in(self.cfg.window, start, end);
        self.score_events(&ws)
    }

    /// Cross-vPE batched scoring: the streams' windows, in ascending
    /// stream order, run as one chunked forward pass, so a 10k-vPE group
    /// costs a handful of large GEMM calls instead of 10k small ones. No
    /// group-wide window set exists: each worker builds the windows of
    /// the chunks it scores from the streams' target ranges (see
    /// `SeqDetector::score_chunks`). The forward math is
    /// row-independent, and a window built in a chunk equals the one
    /// [`LogStream::windows_in`] builds, so each stream's scores equal
    /// the one-stream-at-a-time path bit for bit.
    fn score_batch(
        &self,
        streams: &[&LogStream],
        start: u64,
        end: u64,
        threads: usize,
    ) -> Vec<Vec<ScoredEvent>> {
        let k = self.cfg.window;
        let targets: Vec<Range<usize>> =
            streams.iter().map(|s| s.window_targets(k, start, end)).collect();
        let ends: Vec<usize> = targets
            .iter()
            .scan(0, |n, t| {
                *n += t.len();
                Some(*n)
            })
            .collect();
        let src = Windows::Streams { k, streams, targets: &targets };
        self.score_chunks(src, &ends, par::effective_threads(threads, usize::MAX), score_event)
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

    /// Fraction of the windows of `streams` that `det` misclassifies at
    /// the top-g rule: the training false-positive rate.
    fn training_fp_rate<C: RecurrentCell>(det: &SeqDetector<C>, streams: &[&LogStream]) -> f32 {
        let ws = det.collect_windows(streams);
        if ws.is_empty() {
            return 0.0;
        }
        det.misclassified(&ws).len() as f32 / ws.len() as f32
    }

    fn fit_reduces_training_fp_rate<C: RecurrentCell>() {
        let train = training_stream(1500, 3);
        let mut det = SeqDetector::<C>::new(tiny_cfg());
        let before = training_fp_rate(&det, &[&train]);
        det.fit(&[&train]);
        let after = training_fp_rate(&det, &[&train]);
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
        let fp_before = training_fp_rate(&det, &[&shifted]);
        det.adapt(&[&shifted]);
        let fp_after = training_fp_rate(&det, &[&shifted]);
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

    /// Records in a stream of length class `class` for window `k`: none,
    /// fewer than `k`, `k` (no window), `k + 1` (one window), up to a few
    /// hundred windows, or more than a chunk of them.
    fn class_len(class: usize, k: usize, draw: usize) -> usize {
        match class {
            0 => 0,
            1 => 1 + draw % (k - 1),
            2 => k,
            3 => k + 1,
            4 => k + 2 + draw % 300,
            _ => k + CHUNK + 1 + draw % 700,
        }
    }

    /// `score_batch` over a group of `shape`'s streams (length class,
    /// length draw, time offset) and a `[start, end)` picked by `cut`
    /// (each end before, inside or after the streams, which start at
    /// different times) equals per-stream `score` bit for bit at threads
    /// 1, 2 and 4.
    fn batch_equals_per_stream<C: RecurrentCell>(
        shape: &[(usize, usize, u64)],
        cut: (usize, usize, u64, u64),
        seed: u64,
    ) {
        let det = SeqDetector::<C>::new(SeqDetectorConfig { seed, ..tiny_cfg() });
        let k = det.cfg.window;
        let streams: Vec<LogStream> = shape
            .iter()
            .enumerate()
            .map(|(i, &(class, draw, offset))| {
                let base = training_stream(class_len(class, k, draw), seed + i as u64);
                let shifted =
                    base.records().iter().map(|r| LogRecord { time: r.time + offset, ..*r });
                LogStream::from_records(shifted.collect())
            })
            .collect();
        let refs: Vec<&LogStream> = streams.iter().collect();
        let last = streams.iter().filter_map(|s| s.records().last()).map(|r| r.time).max();
        let after = last.map_or(1, |t| t + 1);
        let (start_at, end_at, a, b) = cut;
        let (a, b) = ((a % after).min(b % after), (a % after).max(b % after));
        let start = [0, a, a, after][start_at];
        let end = [b, b, after, u64::MAX][end_at];
        let bits = |events: &[Vec<ScoredEvent>]| -> Vec<Vec<(u64, u32)>> {
            events.iter().map(|e| e.iter().map(|e| (e.time, e.score.to_bits())).collect()).collect()
        };
        let per_stream: Vec<Vec<ScoredEvent>> =
            refs.iter().map(|s| det.score(s, start, end)).collect();
        for threads in [1, 2, 4] {
            let batched = det.score_batch(&refs, start, end, threads);
            assert_eq!(
                bits(&batched),
                bits(&per_stream),
                "threads {threads}, [{start}, {end}), {} windows",
                per_stream.iter().map(Vec::len).sum::<usize>()
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn lstm_score_batch_equals_per_stream_across_chunk_boundaries(
            shape in proptest::prop::collection::vec((0usize..6, 0usize..1000, 0u64..20_000), 0..=6),
            cut in (0usize..4, 0usize..4, 0u64..u64::MAX, 0u64..u64::MAX),
            seed in 0u64..1000,
        ) {
            batch_equals_per_stream::<nfv_nn::LstmLayer>(&shape, cut, seed);
        }

        #[test]
        fn gru_score_batch_equals_per_stream_across_chunk_boundaries(
            shape in proptest::prop::collection::vec((0usize..6, 0usize..1000, 0u64..20_000), 0..=6),
            cut in (0usize..4, 0usize..4, 0u64..u64::MAX, 0u64..u64::MAX),
            seed in 0u64..1000,
        ) {
            batch_equals_per_stream::<nfv_nn::GruLayer>(&shape, cut, seed);
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
