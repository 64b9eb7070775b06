//! The shared training loop: batching, shuffling, gradient clipping,
//! frozen-parameter masking, and a loss trace.
//!
//! Every model in the workspace trains through one code path. A model
//! implements [`ShardedBatchLoss`] — "given these sample indices,
//! accumulate their share of the batch gradients into this
//! [`GradientSet`] and return their loss sum" — and [`Trainer`] owns
//! everything around it: the optimizer, the epoch/batch loop,
//! deterministic shuffling, the split of each batch into fixed gradient
//! shards and their ordered reduction, clipping, masking of frozen
//! parameters, and per-step/per-epoch loss traces. A batch that fits in
//! one shard is the serial case of the same step.

use crate::optimizer::Optimizer;
use crate::Trainable;
use nfv_tensor::Matrix;
use rand::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Per-element gradient clip applied before every optimizer step.
pub const DEFAULT_GRAD_CLIP: f32 = 5.0;

/// Default rows per gradient shard (see [`TrainerConfig::shard_rows`]).
/// The shard layout is a pure function of the batch's index order and
/// this width — never of the thread count — so any worker count produces
/// the same bits.
pub const DEFAULT_SHARD_ROWS: usize = 16;

/// Upper bound on shards per batch used by auto shard sizing
/// (`shard_rows == 0`): the resolved width is
/// `DEFAULT_SHARD_ROWS.max(batch_size / MAX_SHARDS_PER_BATCH)`, so small
/// batches keep the historical 16-row layout (bit-compatible with every
/// recorded trajectory at the default batch size) while very large
/// batches get proportionally beefier shards instead of thousands of
/// tiny reduction steps.
pub const MAX_SHARDS_PER_BATCH: usize = 16;

/// Batches with fewer rows than this run their shards on the calling
/// thread even when `threads > 1`: at small batch sizes the per-step
/// scoped-spawn overhead exceeds the parallel win (a measured
/// 0.90x/0.82x regression). This is scheduling only — the shard layout
/// and the ascending-shard reduction order are untouched, so the bits
/// are identical either way.
pub const PAR_MIN_BATCH_ROWS: usize = 512;

/// Knobs for a [`Trainer`] run. The learning rate lives on the optimizer.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Number of passes over the index set per `fit` call.
    pub epochs: usize,
    /// Mini-batch size (clamped to at least 1).
    pub batch_size: usize,
    /// Whether to reshuffle the index order each epoch.
    pub shuffle: bool,
    /// Worker threads that compute a batch's gradient shards (clamped to
    /// at least 1). The thread count only schedules the fixed shard
    /// layout; it never changes the math, so 1, 2 and 8 workers produce
    /// bit-identical losses and parameters.
    pub threads: usize,
    /// Rows per gradient shard. Unlike `threads`, this *is* part of the
    /// trajectory definition: changing the shard width changes summation
    /// order (and therefore rounding).
    ///
    /// `0` = auto: the width is derived from `batch_size` alone (see
    /// [`TrainerConfig::resolved_shard_rows`]), so it stays a pure
    /// function of the configuration — never of the thread count — and
    /// resolves to the historical [`DEFAULT_SHARD_ROWS`] at the default
    /// batch size.
    pub shard_rows: usize,
}

impl TrainerConfig {
    /// The shard width the trainer will actually use:
    /// `shard_rows` itself when explicit, otherwise auto-sized from the
    /// batch size (`DEFAULT_SHARD_ROWS.max(batch_size /
    /// MAX_SHARDS_PER_BATCH)`). Deliberately independent of `threads`:
    /// the layout defines the trajectory, threads only schedule it.
    pub fn resolved_shard_rows(&self) -> usize {
        if self.shard_rows == 0 {
            DEFAULT_SHARD_ROWS.max(self.batch_size.max(1).div_ceil(MAX_SHARDS_PER_BATCH))
        } else {
            self.shard_rows
        }
    }
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig { epochs: 1, batch_size: 64, shuffle: true, threads: 1, shard_rows: 0 }
    }
}

/// Typed training failure.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The batch loss went NaN/inf; training stopped before the optimizer
    /// step so the model still holds the last finite parameters.
    NonFiniteLoss {
        /// Global step index (number of completed optimizer steps).
        step: usize,
        /// The offending loss value.
        loss: f32,
    },
    /// A data-parallel worker panicked while computing a shard's
    /// gradients. The panic is contained: the optimizer step is skipped,
    /// the parameters still hold the last completed step, and the trainer
    /// (including its worker pool) stays usable.
    WorkerPanic {
        /// Lowest shard index (in shard order) whose computation panicked.
        shard: usize,
        /// The panic payload, when it carried a string.
        message: String,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::NonFiniteLoss { step, loss } => {
                write!(f, "non-finite loss {loss} at training step {step}")
            }
            TrainError::WorkerPanic { shard, message } => {
                write!(f, "worker panicked on gradient shard {shard}: {message}")
            }
        }
    }
}

impl std::error::Error for TrainError {}

/// A persistent set of gradient accumulators, one per model parameter,
/// shaped once and zeroed (not reallocated) between steps.
#[derive(Debug, Clone, Default)]
pub struct GradientSet {
    mats: Vec<Matrix>,
}

impl GradientSet {
    /// Allocates one zeroed accumulator per parameter shape.
    pub fn new(shapes: &[(usize, usize)]) -> GradientSet {
        GradientSet { mats: shapes.iter().map(|&(r, c)| Matrix::zeros(r, c)).collect() }
    }

    /// Number of parameter slots.
    pub fn len(&self) -> usize {
        self.mats.len()
    }

    /// True when the set holds no slots.
    pub fn is_empty(&self) -> bool {
        self.mats.is_empty()
    }

    /// Zeroes every accumulator in place (no reallocation).
    pub fn zero(&mut self) {
        for m in &mut self.mats {
            m.fill_zero();
        }
    }

    /// Clips every accumulator elementwise to `[-limit, limit]`.
    pub fn clip(&mut self, limit: f32) {
        for m in &mut self.mats {
            m.clip_inplace(limit);
        }
    }

    /// Immutable view of one slot.
    pub fn get(&self, i: usize) -> &Matrix {
        &self.mats[i]
    }

    /// Mutable view of one slot.
    pub fn get_mut(&mut self, i: usize) -> &mut Matrix {
        &mut self.mats[i]
    }

    /// Mutable view of all slots (for backward passes that index into
    /// disjoint slots via slice patterns).
    pub fn slots_mut(&mut self) -> &mut [Matrix] {
        &mut self.mats
    }

    /// Optimizer-ready gradient refs with the first `frozen` slots masked
    /// out as `None` (those parameters receive no update).
    pub fn masked_refs(&self, frozen: usize) -> Vec<Option<&Matrix>> {
        self.mats.iter().enumerate().map(|(i, m)| if i < frozen { None } else { Some(m) }).collect()
    }

    /// Shapes of every slot, in order.
    pub fn shapes(&self) -> Vec<(usize, usize)> {
        self.mats.iter().map(|m| m.shape()).collect()
    }

    /// Elementwise-accumulates `other` into `self` (the shard-reduction
    /// primitive of the trainer step).
    pub fn add_from(&mut self, other: &GradientSet) {
        assert_eq!(self.mats.len(), other.mats.len(), "GradientSet: slot count mismatch");
        for (a, b) in self.mats.iter_mut().zip(&other.mats) {
            a.add_assign(b);
        }
    }
}

/// A model the [`Trainer`] can fit on a dataset of type `D`: its
/// gradient computation runs shard-wise from a shared `&self`, with every
/// piece of mutable state living in a caller-provided worker context, so
/// N workers can share the model immutably while each fills its own
/// context and per-shard [`GradientSet`].
pub trait ShardedBatchLoss<D: ?Sized + Sync>: Trainable + Sync {
    /// Thread-local scratch state (forward/backward caches, workspaces).
    type Worker: Default + Send;

    /// Accumulates the gradients of the samples at `indices` (one shard
    /// of a mini-batch of `total` rows) into `grads`, each scaled as a
    /// term of the whole batch's mean loss, and returns the shard's
    /// *unnormalized* loss sum over its `indices.len() *
    /// loss_terms_per_row()` terms.
    ///
    /// Contract: summing the per-shard gradient sets in ascending shard
    /// order reproduces the batch's mean gradient, and summing the
    /// per-shard losses and dividing once by `total *
    /// loss_terms_per_row()` reproduces its mean loss.
    fn shard_gradients(
        &self,
        data: &D,
        indices: &[usize],
        total: usize,
        worker: &mut Self::Worker,
        grads: &mut GradientSet,
    ) -> f32;

    /// Loss terms each row contributes to the sum that
    /// [`ShardedBatchLoss::shard_gradients`] returns: one per row for a
    /// classification loss (the default), one per output element for an
    /// element-wise loss such as mean-squared error.
    fn loss_terms_per_row(&self) -> usize {
        1
    }

    /// Number of leading parameters whose gradients are masked out
    /// (frozen) during optimization. Defaults to none.
    fn frozen_params(&self) -> usize {
        0
    }
}

/// Per-worker execution state of a [`Trainer`] run: one scratch context
/// per worker thread plus one gradient accumulator and loss slot per
/// shard. Shaped lazily on first use and reused across batches, so
/// steady-state steps allocate nothing.
#[derive(Debug)]
struct ShardPool<W> {
    workers: Vec<W>,
    shard_grads: Vec<GradientSet>,
    shard_losses: Vec<f32>,
}

impl<W: Default> ShardPool<W> {
    /// An empty pool; the trainer shapes it on first use.
    fn new() -> ShardPool<W> {
        ShardPool { workers: Vec::new(), shard_grads: Vec::new(), shard_losses: Vec::new() }
    }

    /// Grows the pool to `workers` contexts and `shards` zeroed gradient
    /// accumulators of the given parameter shapes.
    fn ensure(&mut self, workers: usize, shards: usize, shapes: &[(usize, usize)]) {
        if self.workers.len() < workers {
            self.workers.resize_with(workers, W::default);
        }
        while self.shard_grads.len() < shards {
            self.shard_grads.push(GradientSet::new(shapes));
        }
        if self.shard_losses.len() < shards {
            self.shard_losses.resize(shards, 0.0);
        }
        for g in &mut self.shard_grads[..shards] {
            g.zero();
        }
    }
}

/// Renders a caught panic payload for [`TrainError::WorkerPanic`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// In-place Fisher-Yates shuffle.
///
/// Deliberately identical to `nfv_ml::sampling::shuffle` (same swap
/// sequence per rng draw) so detectors that migrated from the old
/// hand-rolled epoch loops see an unchanged rng stream and reproduce
/// their pre-refactor trajectories bit-for-bit.
fn shuffle_indices(items: &mut [usize], rng: &mut impl Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// Owns the optimizer and drives the epoch/batch loop for any
/// [`ShardedBatchLoss`] model.
#[derive(Debug)]
pub struct Trainer<O: Optimizer> {
    cfg: TrainerConfig,
    opt: O,
    grads: GradientSet,
    step_losses: Vec<f32>,
    epoch_losses: Vec<f32>,
}

impl<O: Optimizer> Trainer<O> {
    /// Builds a trainer for a model with the given parameter shapes.
    pub fn new(cfg: TrainerConfig, opt: O, shapes: &[(usize, usize)]) -> Trainer<O> {
        Trainer {
            cfg,
            opt,
            grads: GradientSet::new(shapes),
            step_losses: Vec::new(),
            epoch_losses: Vec::new(),
        }
    }

    /// Loss of every completed optimizer step, in order.
    pub fn step_losses(&self) -> &[f32] {
        &self.step_losses
    }

    /// Mean loss of every completed epoch, in order.
    pub fn epoch_losses(&self) -> &[f32] {
        &self.epoch_losses
    }

    /// Runs one optimizer step with the batch split into fixed,
    /// index-ordered shards of `cfg.shard_rows` rows, computed by up to
    /// `cfg.threads` workers and reduced into the master [`GradientSet`]
    /// in ascending shard order.
    ///
    /// The shard layout and the reduction order depend only on `indices`
    /// and `shard_rows` — never on the thread count — so the loss and the
    /// parameter update are bit-identical for every `threads` value. A
    /// batch that fits in one shard runs on the calling thread into the
    /// master set directly.
    ///
    /// Returns the batch's mean loss, or an error *before* touching the
    /// parameters: [`TrainError::NonFiniteLoss`] when the loss is NaN/inf,
    /// [`TrainError::WorkerPanic`] when a shard panicked (a one-shard
    /// batch's only shard is shard 0). The trainer stays usable after
    /// either.
    fn train_batch<D, M>(
        &mut self,
        model: &mut M,
        data: &D,
        indices: &[usize],
        pool: &mut ShardPool<M::Worker>,
    ) -> Result<f32, TrainError>
    where
        D: ?Sized + Sync,
        M: ShardedBatchLoss<D>,
    {
        let total = indices.len();
        let shard_rows = self.cfg.resolved_shard_rows().max(1);
        let n_shards = total.div_ceil(shard_rows).max(1);
        self.grads.zero();
        let loss_sum = if n_shards == 1 {
            pool.ensure(1, 0, &[]);
            let (ctx, grads) = (&mut pool.workers[0], &mut self.grads);
            let model_ref: &M = model;
            match catch_unwind(AssertUnwindSafe(|| {
                model_ref.shard_gradients(data, indices, total, ctx, grads)
            })) {
                Ok(sum) => sum,
                Err(payload) => {
                    return Err(TrainError::WorkerPanic {
                        shard: 0,
                        message: panic_message(payload),
                    })
                }
            }
        } else {
            let shards: Vec<&[usize]> = indices.chunks(shard_rows).collect();
            // Small batches stay on the calling thread: per-step
            // dispatch overhead beats the parallel win below
            // PAR_MIN_BATCH_ROWS (and running them there lets the GEMMs
            // inside each shard use the row-panel fan-out instead).
            // Larger batches resolve their worker count through the
            // pool's unified policy (host-core cap, shard-count cap).
            // The shard layout above is already fixed, so both are pure
            // scheduling and the bits are unchanged.
            let workers = if total < PAR_MIN_BATCH_ROWS {
                1
            } else {
                nfv_pool::resolve_workers(self.cfg.threads, n_shards)
            };
            let shapes = self.grads.shapes();
            pool.ensure(workers, n_shards, &shapes);
            let block = n_shards.div_ceil(workers);
            let ShardPool { workers: ctxs, shard_grads, shard_losses } = &mut *pool;
            let model_ref: &M = model;
            // One worker's share: a contiguous block of shards, each
            // computed into its own pre-zeroed accumulator. Panics are
            // caught per shard so one bad sample cannot poison the pool.
            let run_block = |start: usize,
                             shard_block: &[&[usize]],
                             ctx: &mut M::Worker,
                             grads_block: &mut [GradientSet],
                             loss_block: &mut [f32]|
             -> Option<(usize, String)> {
                let per_shard =
                    shard_block.iter().zip(grads_block.iter_mut().zip(loss_block.iter_mut()));
                for (off, (shard, (g, l))) in per_shard.enumerate() {
                    match catch_unwind(AssertUnwindSafe(|| {
                        model_ref.shard_gradients(data, shard, total, ctx, g)
                    })) {
                        Ok(sum) => *l = sum,
                        Err(payload) => return Some((start + off, panic_message(payload))),
                    }
                }
                None
            };
            let panicked = if workers == 1 {
                run_block(
                    0,
                    &shards,
                    &mut ctxs[0],
                    &mut shard_grads[..n_shards],
                    &mut shard_losses[..n_shards],
                )
            } else {
                // Worker-block w runs as the w-th task of a persistent
                // pool scope: fixed worker identity, no per-step thread
                // spawn. Each task writes only its own result slot;
                // the lowest panicking shard wins deterministically.
                let mut results: Vec<Option<(usize, String)>> = vec![None; workers];
                nfv_pool::global().scope(|scope| {
                    for ((w, (((sb, gb), lb), ctx)), slot) in shards
                        .chunks(block)
                        .zip(shard_grads[..n_shards].chunks_mut(block))
                        .zip(shard_losses[..n_shards].chunks_mut(block))
                        .zip(ctxs.iter_mut())
                        .enumerate()
                        .zip(results.iter_mut())
                    {
                        let run = &run_block;
                        scope.spawn(move || *slot = run(w * block, sb, ctx, gb, lb));
                    }
                });
                let mut first: Option<(usize, String)> = None;
                for res in results.into_iter().flatten() {
                    let (s, m) = res;
                    if first.as_ref().is_none_or(|(fs, _)| s < *fs) {
                        first = Some((s, m));
                    }
                }
                first
            };
            if let Some((shard, message)) = panicked {
                return Err(TrainError::WorkerPanic { shard, message });
            }
            // Deterministic reduction: ascending shard order, fixed per
            // batch regardless of which worker produced which shard.
            let mut sum = 0.0f32;
            for (g, l) in shard_grads[..n_shards].iter().zip(&shard_losses[..n_shards]) {
                self.grads.add_from(g);
                sum += *l;
            }
            sum
        };
        let loss = loss_sum / (total * model.loss_terms_per_row()) as f32;
        if !loss.is_finite() {
            return Err(TrainError::NonFiniteLoss { step: self.step_losses.len(), loss });
        }
        self.grads.clip(DEFAULT_GRAD_CLIP);
        let masked = self.grads.masked_refs(model.frozen_params());
        self.opt.step(&mut model.params_mut(), &masked);
        self.step_losses.push(loss);
        Ok(loss)
    }

    /// Trains on all samples `0..n`, shuffling each epoch. Returns the
    /// mean loss of the final epoch.
    pub fn fit<D, M>(
        &mut self,
        model: &mut M,
        data: &D,
        n: usize,
        rng: &mut impl Rng,
    ) -> Result<f32, TrainError>
    where
        D: ?Sized + Sync,
        M: ShardedBatchLoss<D>,
    {
        let indices: Vec<usize> = (0..n).collect();
        self.fit_indices(model, data, &indices, rng)
    }

    /// Trains on an explicit index set (e.g. an oversampled mix).
    /// Returns the mean loss of the final epoch. The worker pool is
    /// allocated once per call and reused across all batches and epochs.
    pub fn fit_indices<D, M>(
        &mut self,
        model: &mut M,
        data: &D,
        indices: &[usize],
        rng: &mut impl Rng,
    ) -> Result<f32, TrainError>
    where
        D: ?Sized + Sync,
        M: ShardedBatchLoss<D>,
    {
        if indices.is_empty() {
            return Ok(0.0);
        }
        let mut pool = ShardPool::new();
        let mut order = indices.to_vec();
        let batch = self.cfg.batch_size.max(1);
        let mut last_epoch_mean = 0.0;
        for _epoch in 0..self.cfg.epochs {
            if self.cfg.shuffle {
                shuffle_indices(&mut order, rng);
            }
            let mut total = 0.0f64;
            let mut batches = 0usize;
            for chunk in order.chunks(batch) {
                total += self.train_batch(model, data, chunk, &mut pool)? as f64;
                batches += 1;
            }
            last_epoch_mean = (total / batches.max(1) as f64) as f32;
            self.epoch_losses.push(last_epoch_mean);
        }
        Ok(last_epoch_mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Sgd;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// y = w * x fitted to y = 2x on one scalar parameter.
    struct Scalar {
        w: Matrix,
    }

    impl Trainable for Scalar {
        fn params(&self) -> Vec<&Matrix> {
            vec![&self.w]
        }
        fn params_mut(&mut self) -> Vec<&mut Matrix> {
            vec![&mut self.w]
        }
    }

    impl ShardedBatchLoss<[f32]> for Scalar {
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
            let mut loss = 0.0;
            let mut g = 0.0;
            for &i in indices {
                let x = data[i];
                let err = w * x - 2.0 * x;
                loss += err * err;
                g += 2.0 * err * x;
            }
            let slot = grads.get_mut(0);
            slot.set(0, 0, slot.get(0, 0) + g / total as f32);
            loss
        }
    }

    #[test]
    fn fit_converges_and_traces_losses() {
        let mut model = Scalar { w: Matrix::zeros(1, 1) };
        let data: Vec<f32> = (1..=8).map(|i| i as f32 * 0.25).collect();
        let cfg = TrainerConfig { epochs: 40, batch_size: 4, ..TrainerConfig::default() };
        let mut trainer = Trainer::new(cfg, Sgd::new(0.05, 0.0, &[(1, 1)]), &[(1, 1)]);
        let mut rng = SmallRng::seed_from_u64(3);
        let last = trainer.fit(&mut model, data.as_slice(), data.len(), &mut rng).unwrap();
        assert!(last < 1e-3, "final epoch loss {last}");
        assert!((model.w.get(0, 0) - 2.0).abs() < 0.05);
        assert_eq!(trainer.epoch_losses().len(), 40);
        assert_eq!(trainer.step_losses().len(), 40 * 2);
        // Losses should broadly decrease.
        assert!(trainer.epoch_losses()[39] < trainer.epoch_losses()[0]);
    }

    #[test]
    fn empty_index_set_is_a_noop() {
        let mut model = Scalar { w: Matrix::filled(1, 1, 1.5) };
        let data = [1.0f32];
        let mut trainer =
            Trainer::new(TrainerConfig::default(), Sgd::new(0.1, 0.0, &[(1, 1)]), &[(1, 1)]);
        let mut rng = SmallRng::seed_from_u64(0);
        let loss = trainer.fit_indices(&mut model, data.as_slice(), &[], &mut rng).unwrap();
        assert_eq!(loss, 0.0);
        assert_eq!(model.w.get(0, 0), 1.5);
        assert!(trainer.step_losses().is_empty());
    }

    #[test]
    fn gradient_set_zero_and_clip() {
        let mut gs = GradientSet::new(&[(2, 2), (1, 3)]);
        assert_eq!(gs.len(), 2);
        assert!(!gs.is_empty());
        gs.get_mut(0).set(1, 1, 10.0);
        gs.get_mut(1).set(0, 2, -10.0);
        gs.clip(1.0);
        assert_eq!(gs.get(0).get(1, 1), 1.0);
        assert_eq!(gs.get(1).get(0, 2), -1.0);
        gs.zero();
        assert_eq!(gs.get(0).get(1, 1), 0.0);
        let masked = gs.masked_refs(1);
        assert!(masked[0].is_none());
        assert!(masked[1].is_some());
    }
}
