//! A from-scratch neural-network library with manual backpropagation.
//!
//! The paper's anomaly detector is a small stack — embedding, two LSTM
//! layers, one dense softmax head — trained with categorical cross-entropy
//! (§5.1 of Li et al., IMC '18). No mature pure-Rust deep-learning library
//! is assumed, so this crate implements exactly what the reproduction
//! needs and nothing more:
//!
//! * [`dense::Dense`] — fully-connected layer with optional activation;
//! * [`embedding::Embedding`] — lookup table for template ids;
//! * [`model::RecurrentCell`] — the contract a recurrent layer meets to
//!   be stacked: its BPTT cache, checkpoint tag and detector name,
//!   construction, one allocation-free forward pass (recording the BPTT
//!   cache only when a backward pass follows), the backward pass, and
//!   its parameters through [`Trainable`]. Two cells implement it:
//!   [`lstm::LstmLayer`] (the paper's) and [`gru::GruLayer`] (~25% fewer
//!   weights per layer); a new recurrent family is one more impl;
//! * [`loss`] — softmax cross-entropy and mean-squared error;
//! * [`optimizer`] — SGD, momentum and Adam;
//! * [`trainer`] — the one training loop ([`trainer::Trainer`]) for every
//!   model that implements [`trainer::ShardedBatchLoss`]: batching,
//!   shuffling, clipping, frozen-parameter masking and loss traces over a
//!   persistent [`trainer::GradientSet`]. Each batch splits into fixed,
//!   index-ordered gradient shards, computed by any number of workers and
//!   reduced in shard order, so results are bit-identical for any worker
//!   count; a batch of one shard is the serial case;
//! * [`model::RecurrentModel`] — the paper's next-template network
//!   (embedding, stacked cells, dense head), generic over the cell, with
//!   layer freezing for transfer learning and tagged JSON checkpoints.
//!   [`SequenceModel`] (LSTM) and [`GruSequenceModel`] are its concrete
//!   aliases;
//! * [`model::Mlp`] — a plain multi-layer perceptron used to build the
//!   autoencoder baseline;
//! * [`checkpoint`] — JSON save/load of parameter sets.
//!
//! Hot paths follow the tensor crate's in-place naming convention
//! (`*_into` overwrites an out-parameter, `*_acc` accumulates into one);
//! the original allocating methods remain as thin wrappers. Every
//! differentiable component is covered by a numerical gradient check in
//! its unit tests.

pub mod activation;
pub mod checkpoint;
pub mod dense;
pub mod embedding;
pub mod gru;
pub mod loss;
pub mod lstm;
pub mod model;
pub mod optimizer;
pub mod trainer;

pub use activation::Activation;
pub use checkpoint::{Checkpoint, CheckpointError};
pub use dense::Dense;
pub use embedding::Embedding;
pub use gru::GruLayer;
pub use lstm::LstmLayer;
pub use model::{
    GruSequenceModel, InferScratch, Mlp, MlpScratch, MseRows, RecurrentCell, RecurrentModel,
    RecurrentScratch, SeqView, SequenceModel, SequenceModelConfig,
};
pub use optimizer::{Adam, Optimizer, Sgd};
pub use trainer::{
    GradientSet, ShardedBatchLoss, TrainError, Trainer, TrainerConfig, DEFAULT_GRAD_CLIP,
    DEFAULT_SHARD_ROWS, MAX_SHARDS_PER_BATCH, PAR_MIN_BATCH_ROWS,
};

/// Anything that exposes its trainable parameters and matching gradient
/// accumulators, in a stable order, so an optimizer can update them.
pub trait Trainable {
    /// Immutable views of all parameters, in a stable order.
    fn params(&self) -> Vec<&nfv_tensor::Matrix>;
    /// Mutable views of all parameters, in the same order as [`Self::params`].
    fn params_mut(&mut self) -> Vec<&mut nfv_tensor::Matrix>;
    /// Shapes of all parameters, in optimizer order.
    fn param_shapes(&self) -> Vec<(usize, usize)> {
        self.params().iter().map(|p| p.shape()).collect()
    }
}
