//! # nfv-detect — predictive analysis for NFV syslogs
//!
//! The primary contribution of the reproduced paper (Li et al.,
//! "Predictive Analysis in Network Function Virtualization", IMC '18):
//! an unsupervised, LSTM-based anomaly detector over vPE syslogs whose
//! anomalies serve as early-warning signatures for network trouble
//! tickets, combined with
//!
//! * **customization** — vPEs are grouped by syslog-distribution
//!   similarity (k-means, modularity-selected K) and one model is
//!   trained per group on pooled data ([`grouping`]);
//! * **online learning** — models are updated monthly with fresh data
//!   ([`pipeline`]);
//! * **adaptation** — after a software update shifts the syslog
//!   distribution, a transfer-learning step (freeze bottom layers,
//!   fine-tune the top on ~1 week of data) restores the model quickly
//!   ([`seq_detector`]).
//!
//! The crate also implements the paper's baselines (TF-IDF autoencoder,
//! One-Class SVM) plus a PCA detector from related work
//! ([`baselines`]), the raw-log codec ([`codec`]), anomaly-to-ticket
//! mapping ([`mapping`]) and the full monthly evaluation protocol
//! ([`pipeline`], [`eval`]).
//!
//! ## Quick example
//!
//! ```
//! use nfv_detect::pipeline::{run_pipeline, PipelineConfig, DetectorKind};
//! use nfv_detect::eval;
//! use nfv_simnet::{FleetTrace, SimConfig, SimPreset};
//!
//! // Simulate a small deployment and run the LSTM pipeline on it.
//! let mut sim = SimConfig::preset(SimPreset::Fast, 1);
//! sim.n_vpes = 4;
//! sim.months = 2;
//! let trace = FleetTrace::simulate(sim);
//!
//! let mut cfg = PipelineConfig::default();
//! cfg.detector = DetectorKind::Lstm;
//! cfg.lstm.epochs = 1;
//! cfg.lstm.max_train_windows = 500;
//! let run = run_pipeline(&trace, &cfg).unwrap();
//! let curve = eval::sweep_prc(&run, &cfg.mapping, 8);
//! assert!(!curve.points.is_empty());
//! ```

pub mod baselines;
pub mod bundle;
pub mod codec;
pub mod detector;
pub mod eval;
pub mod features;
pub mod group_store;
pub mod grouping;
pub mod hmm_detector;
pub mod mapping;
pub mod online;
pub mod par;
pub mod pipeline;
pub mod pipeline_ckpt;
pub mod report;
pub mod seq_detector;
pub mod serve;
pub mod spsc;
pub mod state;
pub mod supervisor;
pub mod triage;

pub use baselines::{AutoencoderDetector, OcsvmDetector, PcaDetector};
pub use bundle::{ModelBundle, SharedModel};
pub use codec::LogCodec;
pub use detector::{AnomalyDetector, ScoredEvent, WindowScorer};
pub use group_store::{GroupModelStore, VpeCursor};
pub use grouping::Grouping;
pub use hmm_detector::{HmmDetector, HmmDetectorConfig};
pub use mapping::{MappingConfig, MappingResult};
pub use online::{OnlineMonitor, Warning};
pub use pipeline::{
    run_pipeline, CheckpointConfig, CrashPoint, DetectorKind, PipelineConfig, PipelineError,
    PipelineEvent, PipelineRun,
};
pub use seq_detector::{
    GruDetector, GruDetectorConfig, LstmDetector, LstmDetectorConfig, SeqDetector,
    SeqDetectorConfig,
};
pub use serve::{
    FeedServeStats, LatencyHistogram, ServeConfig, ServeCore, ServeError, ServeEvent, ServeState,
    ServeStats,
};
pub use supervisor::{
    FeedHealth, FeedObserver, FeedState, FleetEvent, FleetMonitor, FleetMonitorConfig,
};
