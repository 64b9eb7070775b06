//! Model containers: the paper's next-template sequence network, generic
//! over its recurrent cell, and a plain MLP used to build the
//! autoencoder baseline.

use crate::checkpoint::{Checkpoint, CheckpointError, MatrixDump};
use crate::dense::{Dense, DenseCache};
use crate::embedding::Embedding;
use crate::gru::GruLayer;
use crate::loss;
use crate::lstm::LstmLayer;
use crate::trainer::{GradientSet, ShardedBatchLoss};
use crate::Activation;
use crate::Trainable;
use nfv_tensor::{Matrix, Workspace};
use rand::Rng;
use std::fmt::Debug;

/// A recurrent layer [`RecurrentModel`] can stack: the LSTM and the GRU
/// are two implementations, and a new recurrent family is one more.
///
/// Parameters are visited through [`Trainable`] as exactly three
/// matrices, `[Wx, Wh, b]`; the stacked model's optimizer layout,
/// frozen-bottom transfer and checkpoints all rely on that order.
pub trait RecurrentCell: Trainable + Clone + Debug + Send + Sync + 'static {
    /// Per-sequence forward values kept for back-propagation through
    /// time; reshaped in place, so steady-state steps allocate nothing.
    type Cache: Clone + Default + Debug + Send + Sync;
    /// Checkpoint tag of a [`RecurrentModel`] built from this cell.
    const TAG: &'static str;
    /// Name of the next-template detector built on this cell (also the
    /// tag of its serialized state).
    const DETECTOR: &'static str;
    /// Gate blocks per layer: `Wx` is `I x GATES·H`, `Wh` is
    /// `H x GATES·H` and `b` is `1 x GATES·H`.
    const GATES: usize;

    /// A freshly initialized layer mapping `input`-wide steps to
    /// `hidden` units.
    fn new(input: usize, hidden: usize, rng: &mut impl Rng) -> Self;

    /// Allocation-free sequence forward pass from a zero initial state:
    /// `xs[t]` is the `B x I` input at step `t`; writes `h_t` for every
    /// step into `outs`.
    ///
    /// With a `cache` (a backward pass follows), every step's inputs and
    /// gates are recorded for [`RecurrentCell::backward_seq_into`].
    /// Without one, only the running state is kept and each step works
    /// in buffers drawn from `ws`. Both modes run the same gate loop and
    /// give the same bits. At `t = 0` the zero `h · Wh` is not computed
    /// unless `Wh` holds a non-finite value, whose `0 · w` must still
    /// reach the output.
    fn forward_seq_into(
        &self,
        xs: &[Matrix],
        outs: &mut Vec<Matrix>,
        cache: Option<&mut Self::Cache>,
        ws: &mut Workspace,
    );

    /// Allocation-free BPTT: `d_hs[t]` is `dL/dh_t` from the layer above
    /// (zero for steps that do not feed the loss). *Accumulates* the
    /// parameter gradients into `grads` (`[dWx, dWh, db]`; callers zero
    /// them once per batch) and, given `dxs`, writes `dL/dx_t` into it;
    /// without `dxs` (nothing below the layer trains) the input-gradient
    /// products are skipped. Scratch buffers are borrowed from `ws`.
    fn backward_seq_into(
        &self,
        cache: &Self::Cache,
        d_hs: &[Matrix],
        dxs: Option<&mut Vec<Matrix>>,
        grads: &mut [Matrix],
        ws: &mut Workspace,
    );

    /// Allocating [`RecurrentCell::forward_seq_into`]: the hidden state
    /// at every step plus the cache for [`RecurrentCell::backward_seq`].
    fn forward_seq(&self, xs: &[Matrix]) -> (Vec<Matrix>, Self::Cache) {
        let mut outs = Vec::new();
        let mut cache = Self::Cache::default();
        self.forward_seq_into(xs, &mut outs, Some(&mut cache), &mut Workspace::new());
        (outs, cache)
    }

    /// Allocating [`RecurrentCell::backward_seq_into`]: `dL/dx_t` for
    /// every step and the parameter gradients in [`Trainable::params`]
    /// order.
    fn backward_seq(&self, cache: &Self::Cache, d_hs: &[Matrix]) -> (Vec<Matrix>, Vec<Matrix>) {
        let mut grads: Vec<Matrix> =
            self.params().iter().map(|p| Matrix::zeros(p.rows(), p.cols())).collect();
        let mut dxs = Vec::new();
        self.backward_seq_into(cache, d_hs, Some(&mut dxs), &mut grads, &mut Workspace::new());
        (dxs, grads)
    }
}

/// Writes step `t`'s `h_{t-1} Wh` into `zh` for a pass from a zero
/// initial state, where `done` holds the outputs of steps `0..t`.
///
/// At `t = 0` the product is not computed: `h` is zero, so every entry
/// is `+0` as long as `Wh` is finite, and `zh` is zero-filled. A
/// non-finite weight makes its `0 · w` NaN, which must reach the output,
/// so then the product runs on a zero `h` (`wh_finite` is checked once
/// per pass by the caller).
pub(crate) fn hidden_product(
    done: &[Matrix],
    wh: &Matrix,
    wh_finite: bool,
    zh: &mut Matrix,
    ws: &mut Workspace,
) {
    match done.last() {
        Some(h_prev) => h_prev.matmul_into(wh, zh),
        None if wh_finite => zh.fill_zero(),
        None => {
            let h0 = ws.take_zeroed(zh.rows(), wh.rows());
            h0.matmul_into(wh, zh);
            ws.recycle(h0);
        }
    }
}

/// Records the hidden state entering step `t` (zero at `t = 0`) for
/// back-propagation; `done` holds the outputs of steps `0..t`.
pub(crate) fn record_h_prev(h_prev: &mut Matrix, done: &[Matrix]) {
    match done.last() {
        Some(h) => h_prev.copy_from(h),
        None => h_prev.fill_zero(),
    }
}

/// Parameter matrices per recurrent layer (`[Wx, Wh, b]`).
const CELL_PARAMS: usize = 3;

/// Hyper-parameters of [`RecurrentModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceModelConfig {
    /// Template vocabulary size (output classes).
    pub vocab: usize,
    /// Embedding dimensionality.
    pub embed_dim: usize,
    /// Hidden units per recurrent layer.
    pub hidden: usize,
    /// Number of stacked recurrent layers (the paper uses 2).
    pub layers: usize,
    /// Whether to append the normalized inter-arrival gap to each step's
    /// input (the paper's input tuples are `(m_i, t_i - t_{i-1})`).
    pub use_gap_feature: bool,
}

impl Default for SequenceModelConfig {
    fn default() -> Self {
        SequenceModelConfig {
            vocab: 64,
            embed_dim: 16,
            hidden: 32,
            layers: 2,
            use_gap_feature: true,
        }
    }
}

/// The paper's anomaly-detection network: `Embedding (+ gap feature) ->
/// cell x N -> Dense`, predicting a probability distribution over the
/// next syslog template. The paper's cell is the LSTM
/// ([`SequenceModel`]); [`GruSequenceModel`] swaps in the GRU.
///
/// Components are ordered bottom-to-top as
/// `[embedding, cell_0, .., cell_{N-1}, head]`; transfer learning freezes
/// a prefix of that list via [`RecurrentModel::set_frozen_bottom`] and
/// fine-tunes the rest (§4.3 of the paper).
#[derive(Debug, Clone)]
pub struct RecurrentModel<C: RecurrentCell> {
    cfg: SequenceModelConfig,
    embedding: Embedding,
    cells: Vec<C>,
    head: Dense,
    frozen_bottom: usize,
}

/// The paper's next-template network: embedding, stacked LSTM, dense
/// head (checkpoint tag `sequence-model`).
pub type SequenceModel = RecurrentModel<LstmLayer>;
/// The GRU next-template network (checkpoint tag `gru-sequence-model`).
pub type GruSequenceModel = RecurrentModel<GruLayer>;

/// A borrowed view of a window dataset: training/inference code selects
/// samples by index, so batches are index lists instead of gathered
/// copies. `targets` may be empty for inference-only use.
#[derive(Debug, Clone, Copy)]
pub struct SeqView<'a> {
    /// Template-id windows, one per sample.
    pub ids: &'a [Vec<usize>],
    /// Normalized gap features, parallel to `ids` (may be empty when the
    /// model does not use the gap feature).
    pub gaps: &'a [Vec<f32>],
    /// Next-template target per sample (empty for inference).
    pub targets: &'a [usize],
}

/// Reusable buffers of the inference pass, one type for every cell,
/// width, depth and window length: a scorer keeps one per thread and runs
/// any [`RecurrentModel`] through it. Shaped on first use and reshaped in
/// place afterwards, so steady-state inference allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct InferScratch {
    ws: Workspace,
    ids_t: Vec<usize>,
    /// Per-step inputs (`B x (embed_dim + gap)`).
    xs: Vec<Matrix>,
    /// Ping-pong hidden-sequence buffers for the recurrent stack.
    seq_a: Vec<Matrix>,
    seq_b: Vec<Matrix>,
    /// Logits, then probabilities, after inference; `dL/dlogits` during
    /// training.
    probs: Matrix,
}

/// One training worker's buffers for [`RecurrentModel`]: an
/// [`InferScratch`] plus what back-propagation through time needs,
/// generic over the cell's cache type. Reshaped in place, so
/// steady-state training steps allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct RecurrentScratch<K> {
    fwd: InferScratch,
    targets: Vec<usize>,
    /// Ping-pong gradient-sequence buffers for BPTT.
    d_a: Vec<Matrix>,
    d_b: Vec<Matrix>,
    caches: Vec<K>,
    head_cache: DenseCache,
    demb_rows: Matrix,
    dtable_tmp: Matrix,
}

impl<C: RecurrentCell> RecurrentModel<C> {
    /// Builds a model with freshly initialized parameters.
    pub fn new(cfg: SequenceModelConfig, rng: &mut impl Rng) -> Self {
        assert!(cfg.vocab > 1, "SequenceModel: vocabulary must have at least 2 classes");
        assert!(cfg.layers >= 1, "SequenceModel: need at least one recurrent layer");
        let embedding = Embedding::new(cfg.vocab, cfg.embed_dim, rng);
        let in0 = cfg.embed_dim + usize::from(cfg.use_gap_feature);
        let mut cells = Vec::with_capacity(cfg.layers);
        for l in 0..cfg.layers {
            let input = if l == 0 { in0 } else { cfg.hidden };
            cells.push(C::new(input, cfg.hidden, rng));
        }
        let head = Dense::new(cfg.hidden, cfg.vocab, Activation::Identity, rng);
        RecurrentModel { cfg, embedding, cells, head, frozen_bottom: 0 }
    }

    /// The model's configuration.
    pub fn config(&self) -> &SequenceModelConfig {
        &self.cfg
    }

    /// Number of components (embedding + recurrent layers + head).
    pub fn component_count(&self) -> usize {
        2 + self.cells.len()
    }

    /// Freezes the bottom `n` components (0 = train everything). Frozen
    /// components receive no optimizer updates — the transfer-learning
    /// student copies the teacher and fine-tunes only the top layers.
    pub fn set_frozen_bottom(&mut self, n: usize) {
        assert!(
            n < self.component_count(),
            "cannot freeze all {} components",
            self.component_count()
        );
        self.frozen_bottom = n;
    }

    /// Currently frozen bottom-component count.
    pub fn frozen_bottom(&self) -> usize {
        self.frozen_bottom
    }

    /// Validates the samples selected by `indices` and returns the shared
    /// window length.
    fn check_view(&self, view: &SeqView<'_>, indices: &[usize]) -> usize {
        assert!(!indices.is_empty(), "SequenceModel: empty batch");
        let t_len = view.ids[indices[0]].len();
        assert!(t_len > 0, "SequenceModel: zero-length windows");
        for &i in indices {
            assert_eq!(view.ids[i].len(), t_len, "SequenceModel: ragged windows");
        }
        if self.cfg.use_gap_feature {
            assert_eq!(view.gaps.len(), view.ids.len(), "SequenceModel: gaps required");
            for &i in indices {
                assert_eq!(view.gaps[i].len(), t_len, "SequenceModel: ragged gap rows");
            }
        }
        t_len
    }

    /// Allocation-free forward pass over the selected samples. With
    /// `record` (a backward pass follows), every trainable layer fills its
    /// BPTT cache and the head its [`DenseCache`], whose output then holds
    /// the logits; a frozen layer takes no gradient, so it runs the
    /// unrecorded pass, whose bits are the same. Without `record`, nothing
    /// is recorded and the logits land in `s.probs`.
    fn forward(
        &self,
        view: &SeqView<'_>,
        indices: &[usize],
        s: &mut InferScratch,
        record: Option<(&mut Vec<C::Cache>, &mut DenseCache)>,
    ) {
        let t_len = self.check_view(view, indices);
        let b = indices.len();
        let in0 = self.cfg.embed_dim + usize::from(self.cfg.use_gap_feature);
        let InferScratch { ws, ids_t, xs, seq_a, seq_b, probs } = s;

        // Per-step inputs: embed the t-th id of every sample, then fill
        // the gap column when configured.
        ws.ensure_seq(xs, t_len, b, in0);
        for (t, x) in xs.iter_mut().enumerate() {
            ids_t.clear();
            ids_t.extend(indices.iter().map(|&i| view.ids[i][t]));
            self.embedding.forward_into(ids_t, x);
            if self.cfg.use_gap_feature {
                for (r, &i) in indices.iter().enumerate() {
                    x.set(r, in0 - 1, view.gaps[i][t]);
                }
            }
        }

        let n = self.cells.len();
        let (mut caches, head_cache) = record.unzip();
        if let Some(caches) = caches.as_deref_mut() {
            caches.truncate(n);
            caches.resize_with(n, C::Cache::default);
        }
        // Ping-pong the hidden sequences through the stack: xs -> a -> b
        // -> a -> ...
        for (l, cell) in self.cells.iter().enumerate() {
            let cache = caches.as_deref_mut().filter(|_| self.trains_cell(l)).map(|c| &mut c[l]);
            if l == 0 {
                cell.forward_seq_into(xs, seq_a, cache, ws);
            } else if l % 2 == 1 {
                cell.forward_seq_into(seq_a, seq_b, cache, ws);
            } else {
                cell.forward_seq_into(seq_b, seq_a, cache, ws);
            }
        }
        let top = if n % 2 == 1 { seq_a } else { seq_b };
        let last_h = top.last().expect("non-empty sequence");
        match head_cache {
            Some(head_cache) => self.head.forward_into(last_h, head_cache),
            None => self.head.infer_into(last_h, probs),
        }
    }

    /// Whether recurrent layer `l` (component `l + 1`) trains.
    fn trains_cell(&self, l: usize) -> bool {
        l + 1 >= self.frozen_bottom
    }

    /// Allocation-free backward pass. Expects `s.fwd.probs` to hold
    /// `dL/dlogits` and accumulates the gradients of the trainable
    /// components into `grads`. Frozen components cost nothing: the
    /// recursion stops at the lowest trainable layer, which computes no
    /// `dL/dx`, and the embedding scatter runs only when the embedding
    /// trains. Their slots are left as they are.
    fn backward_scratch(
        &self,
        view: &SeqView<'_>,
        indices: &[usize],
        s: &mut RecurrentScratch<C::Cache>,
        grads: &mut GradientSet,
    ) {
        let t_len = view.ids[indices[0]].len();
        let b = indices.len();
        let n = self.cells.len();
        let slots = grads.slots_mut();
        let RecurrentScratch { fwd, d_a, d_b, caches, head_cache, demb_rows, dtable_tmp, .. } = s;
        let InferScratch { ws, ids_t, probs, .. } = fwd;

        // Head backward; only the last step feeds the loss, so every
        // other step's incoming gradient is zero.
        ws.ensure_seq(d_a, t_len, b, self.cfg.hidden);
        for m in d_a.iter_mut().take(t_len - 1) {
            m.fill_zero();
        }
        let head_base = 1 + CELL_PARAMS * n;
        {
            let [dw, db] = &mut slots[head_base..head_base + 2] else { unreachable!() };
            self.head.backward_into(head_cache, probs, &mut d_a[t_len - 1], dw, db, ws);
        }

        // BPTT down the trainable part of the recurrent stack,
        // ping-ponging the per-step gradients. Layer l's dL/dx feeds
        // component l: the embedding, or layer l - 1.
        for l in (0..n).rev().take_while(|&l| self.trains_cell(l)) {
            let cell_grads = &mut slots[1 + CELL_PARAMS * l..1 + CELL_PARAMS * (l + 1)];
            let below_trains = l >= self.frozen_bottom;
            if (n - 1 - l).is_multiple_of(2) {
                let dxs = below_trains.then_some(&mut *d_b);
                self.cells[l].backward_seq_into(&caches[l], d_a, dxs, cell_grads, ws);
            } else {
                let dxs = below_trains.then_some(&mut *d_a);
                self.cells[l].backward_seq_into(&caches[l], d_b, dxs, cell_grads, ws);
            }
        }
        if self.frozen_bottom > 0 {
            return;
        }
        let d_bottom: &[Matrix] = if n % 2 == 1 { d_b } else { d_a };

        // Embedding backward: strip the gap column when present.
        let ed = self.cfg.embed_dim;
        for (t, dx) in d_bottom.iter().enumerate() {
            ids_t.clear();
            ids_t.extend(indices.iter().map(|&i| view.ids[i][t]));
            demb_rows.reset(b, ed);
            for r in 0..b {
                demb_rows.row_mut(r).copy_from_slice(&dx.row(r)[..ed]);
            }
            dtable_tmp.reset(self.cfg.vocab, ed);
            dtable_tmp.fill_zero();
            dtable_tmp.scatter_add_rows(ids_t, demb_rows);
            slots[0].add_assign(dtable_tmp);
        }
    }

    /// Probability distribution over the next template for each selected
    /// window (`indices.len() x vocab`) by the inference pass, written
    /// into `scratch` and returned by reference — zero allocation in
    /// steady state.
    pub fn predict_probs_view<'s>(
        &self,
        view: &SeqView<'_>,
        indices: &[usize],
        scratch: &'s mut InferScratch,
    ) -> &'s Matrix {
        self.forward(view, indices, scratch, None);
        scratch.probs.softmax_rows_inplace();
        &scratch.probs
    }

    /// Probability distribution over the next template for every window
    /// of `view` (`windows x vocab`).
    pub fn predict_probs(&self, view: &SeqView<'_>) -> Matrix {
        let indices: Vec<usize> = (0..view.ids.len()).collect();
        self.predict_probs_view(view, &indices, &mut InferScratch::default()).clone()
    }

    /// Mean cross-entropy of every window of `view` against its target,
    /// without updating any weights.
    pub fn evaluate_loss(&self, view: &SeqView<'_>) -> f32 {
        let mut scratch = InferScratch::default();
        let indices: Vec<usize> = (0..view.ids.len()).collect();
        self.forward(view, &indices, &mut scratch, None);
        let mut dlogits = Matrix::zeros(0, 0);
        let rows = indices.len();
        loss::softmax_cross_entropy_scaled_into(&scratch.probs, view.targets, &mut dlogits, rows)
            / rows as f32
    }

    /// How many leading parameters belong to the frozen bottom components
    /// (the embedding owns one matrix, each recurrent layer three).
    fn frozen_param_count(&self) -> usize {
        if self.frozen_bottom == 0 {
            0
        } else {
            1 + CELL_PARAMS * (self.frozen_bottom - 1)
        }
    }

    /// Shapes of all parameters in optimizer order.
    pub fn param_shapes(&self) -> Vec<(usize, usize)> {
        self.params().iter().map(|p| p.shape()).collect()
    }

    /// Serializes the model (architecture + weights) under the cell's
    /// checkpoint tag.
    pub fn to_checkpoint(&self) -> Checkpoint {
        Checkpoint {
            tag: C::TAG.to_string(),
            dims: vec![
                self.cfg.vocab,
                self.cfg.embed_dim,
                self.cfg.hidden,
                self.cfg.layers,
                usize::from(self.cfg.use_gap_feature),
            ],
            params: self.params().iter().map(|p| MatrixDump::from_matrix(p)).collect(),
        }
    }

    /// Restores a model from a checkpoint produced by
    /// [`RecurrentModel::to_checkpoint`] for the same cell, reporting
    /// structural problems (wrong tag, malformed dims, mismatched
    /// parameter shapes) as typed errors instead of panicking.
    pub fn try_from_checkpoint(ckpt: &Checkpoint) -> Result<Self, CheckpointError> {
        if ckpt.tag != C::TAG {
            return Err(CheckpointError::Invalid(format!(
                "expected tag {:?}, found {:?}",
                C::TAG,
                ckpt.tag
            )));
        }
        if ckpt.dims.len() != 5 {
            return Err(CheckpointError::Invalid(format!(
                "{} checkpoint needs 5 dims, found {}",
                C::TAG,
                ckpt.dims.len()
            )));
        }
        if ckpt.dims[..4].contains(&0) || ckpt.dims[0] < 2 {
            return Err(CheckpointError::Invalid(format!(
                "{} dims must be non-zero with a vocabulary of at least 2, found {:?}",
                C::TAG,
                ckpt.dims
            )));
        }
        let cfg = SequenceModelConfig {
            vocab: ckpt.dims[0],
            embed_dim: ckpt.dims[1],
            hidden: ckpt.dims[2],
            layers: ckpt.dims[3],
            use_gap_feature: ckpt.dims[4] != 0,
        };
        check_stored_shapes(ckpt, &Self::stored_shapes(&cfg, ckpt)?)?;
        let mut rng = rand::rngs::mock::StepRng::new(1, 1);
        let mut model = RecurrentModel::new(cfg, &mut rng);
        restore_params(&mut model, ckpt);
        Ok(model)
    }

    /// The parameter shapes, in optimizer order, that a checkpoint of
    /// `cfg` must hold, derived with checked arithmetic. The matrix count
    /// is compared first, so a layer count no stored matrix backs is
    /// refused before any list is built from it.
    fn stored_shapes(
        cfg: &SequenceModelConfig,
        ckpt: &Checkpoint,
    ) -> Result<Vec<(usize, usize)>, CheckpointError> {
        let count = cfg.layers.checked_mul(CELL_PARAMS).and_then(|p| p.checked_add(3));
        if count != Some(ckpt.params.len()) {
            return Err(CheckpointError::Invalid(format!(
                "{} layers need {} parameter matrices, checkpoint has {}",
                cfg.layers,
                count.map_or("more than usize::MAX".to_string(), |c| c.to_string()),
                ckpt.params.len()
            )));
        }
        let overflow = || {
            CheckpointError::Invalid(format!("{} dims {:?} overflow a shape", C::TAG, ckpt.dims))
        };
        let gates = cfg.hidden.checked_mul(C::GATES).ok_or_else(overflow)?;
        let in0 =
            cfg.embed_dim.checked_add(usize::from(cfg.use_gap_feature)).ok_or_else(overflow)?;
        let mut shapes = vec![(cfg.vocab, cfg.embed_dim)];
        for l in 0..cfg.layers {
            let input = if l == 0 { in0 } else { cfg.hidden };
            shapes.extend([(input, gates), (cfg.hidden, gates), (1, gates)]);
        }
        shapes.extend([(cfg.hidden, cfg.vocab), (1, cfg.vocab)]);
        Ok(shapes)
    }

    /// Panicking convenience wrapper around
    /// [`RecurrentModel::try_from_checkpoint`] for checkpoints known to
    /// be valid (e.g. built in-process).
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Self {
        RecurrentModel::try_from_checkpoint(ckpt).expect("valid sequence-model checkpoint")
    }
}

impl<C: RecurrentCell> Trainable for RecurrentModel<C> {
    fn params(&self) -> Vec<&Matrix> {
        let mut out = self.embedding.params();
        for l in &self.cells {
            out.extend(l.params());
        }
        out.extend(self.head.params());
        out
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        let mut out = self.embedding.params_mut();
        for l in &mut self.cells {
            out.extend(l.params_mut());
        }
        out.extend(self.head.params_mut());
        out
    }
}

impl<'a, C: RecurrentCell> ShardedBatchLoss<SeqView<'a>> for RecurrentModel<C> {
    type Worker = RecurrentScratch<C::Cache>;

    fn shard_gradients(
        &self,
        data: &SeqView<'a>,
        indices: &[usize],
        total: usize,
        s: &mut RecurrentScratch<C::Cache>,
        grads: &mut GradientSet,
    ) -> f32 {
        self.forward(data, indices, &mut s.fwd, Some((&mut s.caches, &mut s.head_cache)));
        s.targets.clear();
        s.targets.extend(indices.iter().map(|&i| data.targets[i]));
        let loss_sum = loss::softmax_cross_entropy_scaled_into(
            s.head_cache.output(),
            &s.targets,
            &mut s.fwd.probs,
            total,
        );
        self.backward_scratch(data, indices, s, grads);
        loss_sum
    }

    fn frozen_params(&self) -> usize {
        self.frozen_param_count()
    }
}

/// A plain multi-layer perceptron (chain of [`Dense`] layers).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

/// One training worker's forward/backward buffers for [`Mlp`].
#[derive(Debug, Clone, Default)]
pub struct MlpScratch {
    ws: Workspace,
    caches: Vec<DenseCache>,
    /// Ping-pong buffers for the layer-gradient chain.
    d_a: Matrix,
    d_b: Matrix,
    x: Matrix,
    target: Matrix,
}

/// A borrowed row-major dataset for MSE training: `x[i]` reconstructs to
/// `target[i]` (for an autoencoder both slices are the same).
#[derive(Debug, Clone, Copy)]
pub struct MseRows<'a> {
    /// Input rows.
    pub x: &'a [Vec<f32>],
    /// Target rows, parallel to `x`.
    pub target: &'a [Vec<f32>],
}

impl Mlp {
    /// Builds an MLP with the given layer widths and one activation for
    /// all hidden layers; the final layer uses `output_activation`.
    ///
    /// `widths = [in, h1, .., out]` produces `widths.len() - 1` layers.
    pub fn new(
        widths: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(widths.len() >= 2, "Mlp: need at least input and output widths");
        let mut layers = Vec::with_capacity(widths.len() - 1);
        for w in 0..widths.len() - 1 {
            let act = if w == widths.len() - 2 { output_activation } else { hidden_activation };
            layers.push(Dense::new(widths[w], widths[w + 1], act, rng));
        }
        Mlp { layers }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Inference forward pass.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for layer in &self.layers {
            h = layer.infer(&h);
        }
        h
    }

    /// Serializes the MLP (widths + activations are implied by the caller;
    /// we store per-layer shapes and the activation tags in `dims`).
    pub fn to_checkpoint(&self) -> Checkpoint {
        let mut dims = Vec::new();
        dims.push(self.layers.len());
        for l in &self.layers {
            dims.push(l.in_dim());
            dims.push(l.out_dim());
            dims.push(match l.activation() {
                Activation::Identity => 0,
                Activation::Sigmoid => 1,
                Activation::Tanh => 2,
                Activation::Relu => 3,
            });
        }
        Checkpoint {
            tag: "mlp".to_string(),
            dims,
            params: self.params().iter().map(|p| MatrixDump::from_matrix(p)).collect(),
        }
    }

    /// Restores an MLP from [`Mlp::to_checkpoint`] output, reporting
    /// structural problems as typed errors instead of panicking.
    pub fn try_from_checkpoint(ckpt: &Checkpoint) -> Result<Self, CheckpointError> {
        if ckpt.tag != "mlp" {
            return Err(CheckpointError::Invalid(format!(
                "expected tag \"mlp\", found {:?}",
                ckpt.tag
            )));
        }
        let n = *ckpt
            .dims
            .first()
            .ok_or_else(|| CheckpointError::Invalid("mlp checkpoint has empty dims".to_string()))?;
        // Each layer is `[in, out, activation]`; the dims are in memory,
        // so a layer count that matches their length is bounded by it.
        if n == 0 || n.checked_mul(3).and_then(|d| d.checked_add(1)) != Some(ckpt.dims.len()) {
            return Err(CheckpointError::Invalid(format!(
                "mlp checkpoint with {} layers needs 1 + 3 x {} dims, found {}",
                n,
                n,
                ckpt.dims.len()
            )));
        }
        let mut specs: Vec<(usize, usize, Activation)> = Vec::with_capacity(n);
        for spec in ckpt.dims[1..].chunks_exact(3) {
            let &[in_dim, out_dim, act] = spec else { unreachable!("chunks of 3") };
            if let Some(&(_, below, _)) = specs.last() {
                if in_dim != below {
                    return Err(CheckpointError::Invalid(format!(
                        "mlp layer {} takes {} inputs but the layer below gives {}",
                        specs.len(),
                        in_dim,
                        below
                    )));
                }
            }
            let act = match act {
                0 => Activation::Identity,
                1 => Activation::Sigmoid,
                2 => Activation::Tanh,
                3 => Activation::Relu,
                other => {
                    return Err(CheckpointError::Invalid(format!(
                        "unknown activation tag {}",
                        other
                    )))
                }
            };
            specs.push((in_dim, out_dim, act));
        }
        let shapes: Vec<_> = specs.iter().flat_map(|&(i, o, _)| [(i, o), (1, o)]).collect();
        check_stored_shapes(ckpt, &shapes)?;
        let mut rng = rand::rngs::mock::StepRng::new(1, 1);
        let layers = specs.into_iter().map(|(i, o, act)| Dense::new(i, o, act, &mut rng)).collect();
        let mut mlp = Mlp { layers };
        restore_params(&mut mlp, ckpt);
        Ok(mlp)
    }

    /// Panicking convenience wrapper around [`Mlp::try_from_checkpoint`]
    /// for checkpoints known to be valid (e.g. built in-process).
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Self {
        Mlp::try_from_checkpoint(ckpt).expect("valid mlp checkpoint")
    }
}

/// Checks the checkpoint's matrices against the parameter shapes its
/// dims describe, and each one's data against its own shape, before a
/// model is built: a loader then allocates only what the checkpoint
/// already holds, whatever its dims claim.
fn check_stored_shapes(
    ckpt: &Checkpoint,
    expected: &[(usize, usize)],
) -> Result<(), CheckpointError> {
    if expected.len() != ckpt.params.len() {
        return Err(CheckpointError::Invalid(format!(
            "architecture expects {} parameter matrices, checkpoint has {}",
            expected.len(),
            ckpt.params.len()
        )));
    }
    for (dump, &shape) in ckpt.params.iter().zip(expected) {
        if (dump.rows, dump.cols) != shape {
            return Err(CheckpointError::Invalid(format!(
                "parameter shape {:?} does not match architecture shape {:?}",
                (dump.rows, dump.cols),
                shape
            )));
        }
        if dump.rows.checked_mul(dump.cols) != Some(dump.data.len()) {
            return Err(CheckpointError::ShapeMismatch {
                rows: dump.rows,
                cols: dump.cols,
                len: dump.data.len(),
            });
        }
    }
    Ok(())
}

/// Copies checkpoint matrices into a model built from the same dims,
/// after [`check_stored_shapes`] passed.
fn restore_params<M: Trainable>(model: &mut M, ckpt: &Checkpoint) {
    for (p, dump) in model.params_mut().into_iter().zip(&ckpt.params) {
        p.as_mut_slice().copy_from_slice(&dump.data);
    }
}

impl Trainable for Mlp {
    fn params(&self) -> Vec<&Matrix> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        self.layers.iter_mut().flat_map(|l| l.params_mut()).collect()
    }
}

impl<'a> ShardedBatchLoss<MseRows<'a>> for Mlp {
    type Worker = MlpScratch;

    /// Forward + MSE loss + backward for the shard's rows. Gradients are
    /// normalized over the whole batch's `total * out_dim` elements and
    /// the returned loss is the shard's unnormalized squared-error sum
    /// (see [`loss::mse_scaled_into`]).
    fn shard_gradients(
        &self,
        data: &MseRows<'a>,
        indices: &[usize],
        total: usize,
        s: &mut MlpScratch,
        grads: &mut GradientSet,
    ) -> f32 {
        let n = self.layers.len();
        let MlpScratch { ws, caches, d_a, d_b, x, target } = s;
        x.reset(indices.len(), self.in_dim());
        target.reset(indices.len(), self.out_dim());
        for (r, &i) in indices.iter().enumerate() {
            x.row_mut(r).copy_from_slice(&data.x[i]);
            target.row_mut(r).copy_from_slice(&data.target[i]);
        }
        if caches.len() != n {
            caches.truncate(n);
            caches.resize_with(n, DenseCache::default);
        }
        for (l, layer) in self.layers.iter().enumerate() {
            let (done, rest) = caches.split_at_mut(l);
            let input: &Matrix = if l == 0 { x } else { done[l - 1].output() };
            layer.forward_into(input, &mut rest[0]);
        }
        let loss_sum = loss::mse_scaled_into(caches[n - 1].output(), target, d_a, total);
        let slots = grads.slots_mut();
        for l in (0..n).rev() {
            let [dw, db] = &mut slots[2 * l..2 * l + 2] else { unreachable!() };
            if (n - 1 - l).is_multiple_of(2) {
                self.layers[l].backward_into(&caches[l], d_a, d_b, dw, db, ws);
            } else {
                self.layers[l].backward_into(&caches[l], d_b, d_a, dw, db, ws);
            }
        }
        loss_sum
    }

    /// One squared error per output element.
    fn loss_terms_per_row(&self) -> usize {
        self.out_dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Adam;
    use crate::trainer::{Trainer, TrainerConfig};
    use rand::{rngs::SmallRng, SeedableRng};

    /// Instantiates generic `fn name<C: RecurrentCell>()` tests once per
    /// cell, as `tests::lstm::name` and `tests::gru::name`.
    macro_rules! cell_tests {
        ($($(#[$attr:meta])* $name:ident),* $(,)?) => {
            mod lstm {
                $(#[test] $(#[$attr])* fn $name() { super::$name::<crate::LstmLayer>() })*
            }
            mod gru {
                $(#[test] $(#[$attr])* fn $name() { super::$name::<crate::GruLayer>() })*
            }
        };
    }

    cell_tests!(
        gradient_check_all_parameters,
        gradient_check_inputs,
        learns_a_deterministic_cycle,
        probs_rows_are_distributions,
        frozen_bottom_components_do_not_move,
        checkpoint_roundtrip_preserves_predictions,
        oversized_checkpoint_dims_are_typed_errors,
        non_finite_wh_reaches_every_probability_row,
        #[should_panic(expected = "ragged windows")]
        ragged_batch_is_rejected,
    );

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Softmax of the recording pass's logits: what training computes
    /// before its backward pass.
    fn recorded_probs<C: RecurrentCell>(
        model: &RecurrentModel<C>,
        view: &SeqView<'_>,
        indices: &[usize],
    ) -> Vec<u32> {
        let mut s = RecurrentScratch::<C::Cache>::default();
        model.forward(view, indices, &mut s.fwd, Some((&mut s.caches, &mut s.head_cache)));
        let mut probs = s.head_cache.output().clone();
        probs.softmax_rows_inplace();
        bits(&probs)
    }

    /// A random model of `layers` cells scores `batch` windows of length
    /// `window`, drawn with repeats from a small pool. The inference pass
    /// runs on a scratch that first ran a model of another width, depth
    /// and window over a larger batch, and must give the recording
    /// pass's probabilities bit for bit.
    fn inference_equals_recording<C: RecurrentCell>(
        layers: usize,
        window: usize,
        batch: usize,
        gap: bool,
        seed: u64,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cfg = SequenceModelConfig {
            vocab: rng.gen_range(2..12),
            embed_dim: rng.gen_range(1..7),
            hidden: rng.gen_range(1..10),
            layers,
            use_gap_feature: gap,
        };
        let (pool, vocab) = (batch / 2 + 1, cfg.vocab);
        let windows = |w: usize, rng: &mut SmallRng| -> (Vec<Vec<usize>>, Vec<Vec<f32>>) {
            let ids = (0..pool + 9).map(|_| (0..w).map(|_| rng.gen_range(0..vocab)).collect());
            let ids = ids.collect();
            let gaps = (0..pool + 9).map(|_| (0..w).map(|_| rng.gen_range(0.0..1.0)).collect());
            (ids, gaps.collect())
        };

        let other_cfg = SequenceModelConfig {
            hidden: cfg.hidden + 3,
            layers: 4 - layers,
            use_gap_feature: !gap,
            ..cfg.clone()
        };
        let other = RecurrentModel::<C>::new(other_cfg, &mut rng);
        let (o_ids, o_gaps) = windows(window % 7 + 1, &mut rng);
        let o_view = SeqView { ids: &o_ids, gaps: &o_gaps, targets: &[] };
        let mut scratch = InferScratch::default();
        other.predict_probs_view(&o_view, &(0..pool + 9).collect::<Vec<_>>(), &mut scratch);

        let model = RecurrentModel::<C>::new(cfg, &mut rng);
        let (ids, gaps) = windows(window, &mut rng);
        let view = SeqView { ids: &ids, gaps: &gaps, targets: &[] };
        let indices: Vec<usize> = (0..batch).map(|_| rng.gen_range(0..pool)).collect();
        let got = bits(model.predict_probs_view(&view, &indices, &mut scratch));
        assert_eq!(got, recorded_probs(&model, &view, &indices));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(40))]

        #[test]
        fn lstm_inference_equals_recording_pass(
            layers in 1usize..=3,
            window in 1usize..=7,
            batch in 1usize..=70,
            gap in 0u8..2,
            seed in 0u64..1_000_000,
        ) {
            inference_equals_recording::<crate::LstmLayer>(layers, window, batch, gap == 1, seed);
        }

        #[test]
        fn gru_inference_equals_recording_pass(
            layers in 1usize..=3,
            window in 1usize..=7,
            batch in 1usize..=70,
            gap in 0u8..2,
            seed in 0u64..1_000_000,
        ) {
            inference_equals_recording::<crate::GruLayer>(layers, window, batch, gap == 1, seed);
        }
    }

    /// Every slot of `shard_gradients`'s gradients, as bits, and its
    /// loss, with the bottom `frozen` components of `model` frozen.
    fn gradient_bits<C: RecurrentCell>(
        model: &mut RecurrentModel<C>,
        frozen: usize,
        view: &SeqView<'_>,
        indices: &[usize],
        s: &mut RecurrentScratch<C::Cache>,
    ) -> (Vec<Vec<u32>>, u32) {
        model.set_frozen_bottom(frozen);
        let mut grads = GradientSet::new(&model.param_shapes());
        let loss = model.shard_gradients(view, indices, indices.len(), s, &mut grads);
        ((0..grads.len()).map(|i| bits(grads.get(i))).collect(), loss.to_bits())
    }

    /// A frozen prefix skips work, never changes it: for every
    /// `frozen_bottom`, the trainable slots hold the bits of the run
    /// with nothing frozen, the frozen slots stay zero, and the loss is
    /// unchanged. One scratch serves every run, so a pass that skipped
    /// a layer's cache or its `dL/dx` leaves nothing stale for the next.
    fn frozen_prefix_keeps_trainable_gradients<C: RecurrentCell>(
        layers: usize,
        window: usize,
        batch: usize,
        gap: bool,
        seed: u64,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cfg = SequenceModelConfig {
            vocab: rng.gen_range(2..12),
            embed_dim: rng.gen_range(1..7),
            hidden: rng.gen_range(1..10),
            layers,
            use_gap_feature: gap,
        };
        let vocab = cfg.vocab;
        let ids: Vec<Vec<usize>> =
            (0..batch).map(|_| (0..window).map(|_| rng.gen_range(0..vocab)).collect()).collect();
        let gaps: Vec<Vec<f32>> =
            (0..batch).map(|_| (0..window).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
        let targets: Vec<usize> = (0..batch).map(|_| rng.gen_range(0..vocab)).collect();
        let view = SeqView { ids: &ids, gaps: &gaps, targets: &targets };
        let indices: Vec<usize> = (0..batch).map(|_| rng.gen_range(0..batch)).collect();
        let mut model = RecurrentModel::<C>::new(cfg, &mut rng);
        let mut s = RecurrentScratch::default();

        let (all, loss) = gradient_bits(&mut model, 0, &view, &indices, &mut s);
        for frozen in (1..model.component_count()).chain([0]) {
            let (got, got_loss) = gradient_bits(&mut model, frozen, &view, &indices, &mut s);
            assert_eq!(got_loss, loss, "frozen {frozen}: loss");
            let n_frozen = model.frozen_param_count();
            for (slot, (got, all)) in got.iter().zip(&all).enumerate() {
                if slot < n_frozen {
                    assert!(got.iter().all(|&b| b == 0), "frozen {frozen}: slot {slot} written");
                } else {
                    assert_eq!(got, all, "frozen {frozen}: slot {slot}");
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(40))]

        #[test]
        fn lstm_frozen_prefix_keeps_trainable_gradients(
            layers in 1usize..=3,
            window in 1usize..=7,
            batch in 1usize..=40,
            gap in 0u8..2,
            seed in 0u64..1_000_000,
        ) {
            frozen_prefix_keeps_trainable_gradients::<crate::LstmLayer>(
                layers, window, batch, gap == 1, seed,
            );
        }

        #[test]
        fn gru_frozen_prefix_keeps_trainable_gradients(
            layers in 1usize..=3,
            window in 1usize..=7,
            batch in 1usize..=40,
            gap in 0u8..2,
            seed in 0u64..1_000_000,
        ) {
            frozen_prefix_keeps_trainable_gradients::<crate::GruLayer>(
                layers, window, batch, gap == 1, seed,
            );
        }
    }

    /// Skipping the zero `h · Wh` at t = 0 must not hide a non-finite
    /// `Wh`: a NaN in any layer's `Wh` makes every probability row
    /// non-finite, also for windows of one and two steps, and the
    /// inference pass still equals the recording pass.
    fn non_finite_wh_reaches_every_probability_row<C: RecurrentCell>() {
        let cfg = SequenceModelConfig {
            vocab: 6,
            embed_dim: 4,
            hidden: 5,
            layers: 3,
            use_gap_feature: true,
        };
        for layer in 0..cfg.layers {
            let mut model = RecurrentModel::<C>::new(cfg.clone(), &mut SmallRng::seed_from_u64(3));
            // Parameters: the embedding, then [Wx, Wh, b] per layer.
            model.params_mut()[1 + CELL_PARAMS * layer + 1].set(2, 3, f32::NAN);
            for window in [1, 2] {
                let ids: Vec<Vec<usize>> = (0..4).map(|b| vec![b; window]).collect();
                let gaps = vec![vec![0.5; window]; 4];
                let view = SeqView { ids: &ids, gaps: &gaps, targets: &[] };
                let indices = [0, 1, 2, 3, 1];
                let mut scratch = InferScratch::default();
                let probs = model.predict_probs_view(&view, &indices, &mut scratch);
                for r in 0..probs.rows() {
                    assert!(
                        probs.row(r).iter().all(|p| !p.is_finite()),
                        "layer {layer}, window {window}: row {r} has a finite probability"
                    );
                }
                assert_eq!(bits(probs), recorded_probs(&model, &view, &indices));
            }
        }
    }

    /// Loss = 0.5 * sum over all steps of ||h_t||^2, so dL/dh_t = h_t.
    fn seq_loss<C: RecurrentCell>(layer: &C, xs: &[Matrix]) -> f32 {
        let (hs, _) = layer.forward_seq(xs);
        hs.iter().map(|h| 0.5 * h.as_slice().iter().map(|v| v * v).sum::<f32>()).sum()
    }

    fn gradient_check_all_parameters<C: RecurrentCell>() {
        let mut rng = SmallRng::seed_from_u64(21);
        let mut layer = C::new(3, 2, &mut rng);
        let xs: Vec<Matrix> =
            (0..4).map(|_| nfv_tensor::uniform_in(2, 3, -1.0, 1.0, &mut rng)).collect();

        let (hs, cache) = layer.forward_seq(&xs);
        let d_hs: Vec<Matrix> = hs.clone();
        let (_, analytic) = layer.backward_seq(&cache, &d_hs);

        let eps = 1e-2f32;
        for (pi, analytic_grad) in analytic.iter().enumerate() {
            let len = layer.params()[pi].as_slice().len();
            // Probe a deterministic sample of entries in each parameter.
            for idx in (0..len).step_by(1 + len / 7) {
                let orig = layer.params()[pi].as_slice()[idx];
                layer.params_mut()[pi].as_mut_slice()[idx] = orig + eps;
                let plus = seq_loss(&layer, &xs);
                layer.params_mut()[pi].as_mut_slice()[idx] = orig - eps;
                let minus = seq_loss(&layer, &xs);
                layer.params_mut()[pi].as_mut_slice()[idx] = orig;
                let numeric = (plus - minus) / (2.0 * eps);
                let a = analytic_grad.as_slice()[idx];
                assert!(
                    (a - numeric).abs() < 3e-2 * (1.0 + numeric.abs()),
                    "param {} idx {}: analytic {} vs numeric {}",
                    pi,
                    idx,
                    numeric,
                    a
                );
            }
        }
    }

    fn gradient_check_inputs<C: RecurrentCell>() {
        let mut rng = SmallRng::seed_from_u64(33);
        let layer = C::new(2, 3, &mut rng);
        let mut xs: Vec<Matrix> =
            (0..3).map(|_| nfv_tensor::uniform_in(1, 2, -1.0, 1.0, &mut rng)).collect();

        let (hs, cache) = layer.forward_seq(&xs);
        let (dxs, _) = layer.backward_seq(&cache, &hs);

        let eps = 1e-2f32;
        for t in 0..xs.len() {
            for idx in 0..xs[t].as_slice().len() {
                let orig = xs[t].as_slice()[idx];
                xs[t].as_mut_slice()[idx] = orig + eps;
                let plus = seq_loss(&layer, &xs);
                xs[t].as_mut_slice()[idx] = orig - eps;
                let minus = seq_loss(&layer, &xs);
                xs[t].as_mut_slice()[idx] = orig;
                let numeric = (plus - minus) / (2.0 * eps);
                let analytic = dxs[t].as_slice()[idx];
                assert!(
                    (analytic - numeric).abs() < 3e-2 * (1.0 + numeric.abs()),
                    "step {} idx {}: analytic {} vs numeric {}",
                    t,
                    idx,
                    analytic,
                    numeric
                );
            }
        }
    }

    /// Takes `steps` Adam steps on all `n` samples of `data` through the
    /// trainer, one unshuffled full batch per epoch, and returns the loss
    /// of every step.
    fn fit_full_batch<D: ?Sized + Sync, M: ShardedBatchLoss<D>>(
        model: &mut M,
        data: &D,
        n: usize,
        steps: usize,
        lr: f32,
    ) -> Vec<f32> {
        let shapes = model.param_shapes();
        let cfg =
            TrainerConfig { epochs: steps, batch_size: n, shuffle: false, ..Default::default() };
        let mut trainer = Trainer::new(cfg, Adam::new(lr, &shapes), &shapes);
        trainer.fit(model, data, n, &mut SmallRng::seed_from_u64(0)).expect("finite losses");
        trainer.step_losses().to_vec()
    }

    /// Sliding windows over a repeating pattern, with their targets; the
    /// next id is always deterministic, so the model should learn it
    /// nearly perfectly.
    fn toy_windows(
        window: usize,
        pattern: &[usize],
    ) -> (Vec<Vec<usize>>, Vec<Vec<f32>>, Vec<usize>) {
        let seq: Vec<usize> = pattern.iter().cycle().take(200).copied().collect();
        let mut ids = Vec::new();
        let mut gaps = Vec::new();
        let mut targets = Vec::new();
        for start in 0..seq.len() - window {
            ids.push(seq[start..start + window].to_vec());
            gaps.push(vec![0.5; window]);
            targets.push(seq[start + window]);
        }
        (ids, gaps, targets)
    }

    fn learns_a_deterministic_cycle<C: RecurrentCell>() {
        let cfg = SequenceModelConfig {
            vocab: 4,
            embed_dim: 6,
            hidden: 12,
            layers: 2,
            use_gap_feature: true,
        };
        let mut rng = SmallRng::seed_from_u64(7);
        let mut model = RecurrentModel::<C>::new(cfg, &mut rng);
        let (ids, gaps, targets) = toy_windows(5, &[0, 1, 2, 3]);
        let view = SeqView { ids: &ids, gaps: &gaps, targets: &targets };

        let first_loss = model.evaluate_loss(&view);
        fit_full_batch(&mut model, &view, ids.len(), 60, 0.01);
        let final_loss = model.evaluate_loss(&view);
        assert!(
            final_loss < first_loss * 0.2,
            "loss did not drop: {} -> {}",
            first_loss,
            final_loss
        );

        // The argmax prediction should now follow the cycle.
        let probs = model.predict_probs(&view);
        let preds = probs.argmax_rows();
        let correct = preds.iter().zip(targets.iter()).filter(|(p, t)| p == t).count();
        assert!(
            correct as f32 / targets.len() as f32 > 0.95,
            "accuracy {}/{}",
            correct,
            targets.len()
        );
    }

    fn probs_rows_are_distributions<C: RecurrentCell>() {
        let mut rng = SmallRng::seed_from_u64(3);
        let model = RecurrentModel::<C>::new(SequenceModelConfig::default(), &mut rng);
        let ids = [vec![1, 2, 3], vec![4, 5, 6]];
        let gaps = [vec![0.1, 0.2, 0.3], vec![0.0, 0.0, 0.0]];
        let probs = model.predict_probs(&SeqView { ids: &ids, gaps: &gaps, targets: &[] });
        assert_eq!(probs.shape(), (2, 64));
        for r in 0..2 {
            let s: f32 = probs.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    fn frozen_bottom_components_do_not_move<C: RecurrentCell>() {
        let cfg = SequenceModelConfig {
            vocab: 5,
            embed_dim: 4,
            hidden: 6,
            layers: 2,
            use_gap_feature: false,
        };
        let mut rng = SmallRng::seed_from_u64(11);
        let mut model = RecurrentModel::<C>::new(cfg, &mut rng);
        model.set_frozen_bottom(2); // freeze embedding + first recurrent layer

        let before: Vec<Vec<f32>> = model.params().iter().map(|p| p.as_slice().to_vec()).collect();
        let view = SeqView { ids: &[vec![0, 1, 2, 3]], gaps: &[], targets: &[4] };
        fit_full_batch(&mut model, &view, 1, 3, 0.05);
        let after: Vec<Vec<f32>> = model.params().iter().map(|p| p.as_slice().to_vec()).collect();

        // Embedding (1 param) + layer 0 (3 params) frozen; the rest must move.
        for i in 0..4 {
            assert_eq!(before[i], after[i], "frozen param {} moved", i);
        }
        assert_ne!(before[4], after[4], "unfrozen layer 1 did not move");
        assert_ne!(before[7], after[7], "unfrozen head did not move");
    }

    fn checkpoint_roundtrip_preserves_predictions<C: RecurrentCell>() {
        let mut rng = SmallRng::seed_from_u64(19);
        let model = RecurrentModel::<C>::new(SequenceModelConfig::default(), &mut rng);
        let view =
            SeqView { ids: &[vec![7, 8, 9, 10]], gaps: &[vec![0.1, 0.4, 0.2, 0.9]], targets: &[] };
        let original = model.predict_probs(&view);
        let restored = RecurrentModel::<C>::from_checkpoint(&model.to_checkpoint());
        let roundtrip = restored.predict_probs(&view);
        assert_eq!(original.as_slice(), roundtrip.as_slice());
    }

    /// Dims that no stored matrix backs are a typed error, found before
    /// anything is allocated from them: a vocabulary or hidden width of
    /// 2^62 (whose shapes overflow), a vocabulary of 2^33 and 2^40 layers
    /// (whose allocations would abort the process).
    fn oversized_checkpoint_dims_are_typed_errors<C: RecurrentCell>() {
        let cfg = SequenceModelConfig { vocab: 6, embed_dim: 3, hidden: 4, ..Default::default() };
        let ckpt = RecurrentModel::<C>::new(cfg, &mut SmallRng::seed_from_u64(2)).to_checkpoint();
        for (dim, value) in [(0, 1 << 62), (2, 1 << 62), (0, 1 << 33), (3, 1 << 40)] {
            let mut bad = ckpt.clone();
            bad.dims[dim] = value;
            match RecurrentModel::<C>::try_from_checkpoint(&bad) {
                Err(CheckpointError::Invalid(_)) => {}
                other => panic!("dims[{dim}] = {value}: expected Invalid, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_mlp_checkpoint_dims_are_typed_errors() {
        let mut rng = SmallRng::seed_from_u64(31);
        let mlp = Mlp::new(&[5, 3, 5], Activation::Relu, Activation::Identity, &mut rng);
        let ckpt = mlp.to_checkpoint();
        // dims: [layers, in0, out0, act0, in1, out1, act1].
        let cases: [(usize, usize); 5] =
            [(1, 1 << 62), (2, 1 << 62), (2, 1 << 33), (0, 1 << 40), (0, usize::MAX / 2)];
        for (dim, value) in cases {
            let mut bad = ckpt.clone();
            bad.dims[dim] = value;
            match Mlp::try_from_checkpoint(&bad) {
                Err(CheckpointError::Invalid(_)) => {}
                other => panic!("dims[{dim}] = {value}: expected Invalid, got {other:?}"),
            }
        }
    }

    /// Layers whose widths do not chain (layer 1 takes 4 inputs, layer
    /// 0 gives 3) are a typed error at load, not a panic at inference,
    /// even when every stored matrix matches its own layer's dims.
    #[test]
    fn mlp_checkpoint_with_unchained_widths_is_a_typed_error() {
        let mut rng = SmallRng::seed_from_u64(37);
        let first = Mlp::new(&[5, 3], Activation::Relu, Activation::Relu, &mut rng);
        let second = Mlp::new(&[4, 5], Activation::Relu, Activation::Identity, &mut rng);
        let mut ckpt = first.to_checkpoint();
        let tail = second.to_checkpoint();
        ckpt.dims[0] = 2;
        ckpt.dims.extend_from_slice(&tail.dims[1..]);
        ckpt.params.extend(tail.params);
        match Mlp::try_from_checkpoint(&ckpt) {
            Err(CheckpointError::Invalid(msg)) => assert!(msg.contains("inputs"), "{msg}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn mlp_autoencoder_reduces_reconstruction_error() {
        let mut rng = SmallRng::seed_from_u64(23);
        let mut ae = Mlp::new(&[8, 4, 2, 4, 8], Activation::Tanh, Activation::Identity, &mut rng);
        // Data on a 1-D manifold: x = [t, 2t, .., 8t].
        let x: Vec<Vec<f32>> = (0..16)
            .map(|r| (0..8).map(|c| (r as f32 / 16.0) * (c + 1) as f32 * 0.1).collect())
            .collect();
        let losses = fit_full_batch(&mut ae, &MseRows { x: &x, target: &x }, 16, 201, 0.01);
        let (first, last) = (losses[0], losses[200]);
        assert!(last < first * 0.2, "AE loss did not drop: {} -> {}", first, last);
    }

    #[test]
    fn mlp_checkpoint_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(29);
        let mlp = Mlp::new(&[5, 3, 5], Activation::Relu, Activation::Identity, &mut rng);
        let x = nfv_tensor::uniform_in(4, 5, -1.0, 1.0, &mut rng);
        let restored = Mlp::from_checkpoint(&mlp.to_checkpoint());
        assert_eq!(mlp.infer(&x).as_slice(), restored.infer(&x).as_slice());
    }

    fn ragged_batch_is_rejected<C: RecurrentCell>() {
        let mut rng = SmallRng::seed_from_u64(1);
        let model = RecurrentModel::<C>::new(SequenceModelConfig::default(), &mut rng);
        let ids = [vec![1, 2, 3], vec![1, 2]];
        let gaps = [vec![0.0; 3], vec![0.0; 2]];
        let _ = model.predict_probs(&SeqView { ids: &ids, gaps: &gaps, targets: &[] });
    }
}
