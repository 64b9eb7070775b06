//! The end-to-end runtime pipeline and the paper's monthly evaluation
//! protocol (§5.1):
//!
//! 1. mine the template codec from the first month of raw logs;
//! 2. optionally group vPEs by syslog-distribution similarity
//!    (customization, §4.3) and pool each group's data;
//! 3. train one detector per group on ticket-free month-0 data;
//! 4. for every following month: score that month, then update the
//!    model with the month's (ticket-free) data;
//! 5. when the false-alarm rate surges (software update!), refresh the
//!    codec and run transfer-learning adaptation on one week of fresh
//!    data (when adaptation is enabled).
//!
//! The pipeline emits raw scored events per vPE per month;
//! [`crate::eval`] turns them into PR curves, monthly F-measures and
//! per-ticket-type detection rates.
//!
//! ## Crash safety
//!
//! With [`CheckpointConfig::dir`] set, the pipeline atomically writes a
//! generation-numbered checkpoint after the initial fit (generation 0)
//! and after each completed month `m` (generation `m`), and
//! [`CheckpointConfig::resume`] continues an interrupted run from the
//! newest intact generation. Resume is **bit-identical**: detector
//! parameters and RNG positions are restored exactly, and the codec and
//! encoded streams are rebuilt by replaying the recorded adaptation
//! schedule against the trace, then verified against the checkpoint.
//! See [`crate::pipeline_ckpt`] for the on-disk format.
//!
//! [`CheckpointConfig::crash`] injects deterministic crashes at month
//! boundaries (including torn mid-save writes) so the recovery path is
//! testable without killing the process.

use crate::baselines::{
    AutoencoderConfig, AutoencoderDetector, OcsvmDetector, OcsvmDetectorConfig, PcaDetector,
    PcaDetectorConfig,
};
use crate::codec::LogCodec;
use crate::detector::{AnomalyDetector, ScoredEvent};
use crate::group_store::{GroupModelStore, VpeCursor};
use crate::grouping::Grouping;
use crate::hmm_detector::{HmmDetector, HmmDetectorConfig};
use crate::mapping::{map_clusters, warning_clusters, MappingConfig};
use crate::par;
use crate::pipeline_ckpt;
use crate::seq_detector::{GruDetector, GruDetectorConfig, LstmDetector, LstmDetectorConfig};
use nfv_nn::checkpoint::CheckpointError;
use nfv_simnet::{FleetTrace, Ticket, TicketCause};
use nfv_syslog::time::{month_start, DAY};
use nfv_syslog::{LogRecord, LogStream, SyslogMessage};
use std::fmt;
use std::path::PathBuf;

/// Which detector family the pipeline runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorKind {
    /// The paper's LSTM detector.
    Lstm,
    /// GRU next-template detector (detector-zoo extension).
    Gru,
    /// Autoencoder baseline.
    Autoencoder,
    /// One-Class SVM baseline.
    Ocsvm,
    /// PCA residual detector (extension).
    Pca,
    /// Discrete-HMM detector (related-work extension).
    Hmm,
}

/// A deterministic crash-injection point for the recovery test harness.
///
/// Injected crashes surface as [`PipelineError::CrashInjected`] instead
/// of killing the process, so tests (and the CI smoke script) observe
/// exactly the on-disk state a real crash at that point would leave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Crash immediately after month `m`'s boundary work — including its
    /// checkpoint — completes. `AfterMonth(0)` crashes right after the
    /// initial fit and its generation-0 checkpoint.
    AfterMonth(usize),
    /// Crash *during* the checkpoint save at month `m`'s boundary,
    /// leaving a torn (truncated) file in place of generation `m` — the
    /// non-atomic failure mode resume must fall back from.
    MidSave(usize),
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrashPoint::AfterMonth(m) => write!(f, "after month {} boundary", m),
            CrashPoint::MidSave(m) => write!(f, "mid-save at month {} boundary", m),
        }
    }
}

/// Typed failure modes of [`run_pipeline`].
#[derive(Debug)]
pub enum PipelineError {
    /// The trace has fewer than two months (train + test).
    TooFewMonths {
        /// Months the trace actually covers.
        months: usize,
    },
    /// Checkpoint persistence failed (i/o, malformed state).
    Checkpoint(CheckpointError),
    /// A checkpoint was found but cannot continue this run: it was
    /// written under a different configuration or trace, or its replayed
    /// state failed verification.
    ResumeMismatch(String),
    /// An injected [`CrashPoint`] fired (test harness only).
    CrashInjected(CrashPoint),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::TooFewMonths { months } => {
                write!(f, "need at least two months (train + test), trace has {}", months)
            }
            PipelineError::Checkpoint(e) => write!(f, "pipeline checkpoint failed: {}", e),
            PipelineError::ResumeMismatch(msg) => write!(f, "cannot resume: {}", msg),
            PipelineError::CrashInjected(p) => write!(f, "injected crash fired {}", p),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for PipelineError {
    fn from(e: CheckpointError) -> Self {
        PipelineError::Checkpoint(e)
    }
}

/// Crash-safety knobs of the monthly pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Checkpoint directory. `None` disables checkpointing entirely.
    pub dir: Option<PathBuf>,
    /// Write a checkpoint every N completed months (generation 0, after
    /// the initial fit, is always written). Values below 1 behave as 1.
    pub every: usize,
    /// Checkpoint generations retained on disk; older ones are pruned.
    /// At least 2 are needed for torn-write fallback; 0 behaves as the
    /// default.
    pub keep: usize,
    /// Resume from the newest intact generation in `dir` when present
    /// (a fresh run otherwise).
    pub resume: bool,
    /// Deterministic crash injection for the recovery test harness.
    pub crash: Option<CrashPoint>,
    /// Save attempts per boundary before the checkpoint is skipped
    /// (warn-and-continue). Values below 1 behave as 1.
    pub retry_attempts: u32,
    /// Backoff before the first retry, doubling per attempt.
    pub retry_backoff_ms: u64,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            dir: None,
            every: 1,
            keep: 3,
            resume: false,
            crash: None,
            retry_attempts: 3,
            retry_backoff_ms: 10,
        }
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Detector family.
    pub detector: DetectorKind,
    /// Enable vPE grouping (customization). Disabled = one global model.
    pub customize: bool,
    /// Enable post-update transfer-learning adaptation.
    pub adapt: bool,
    /// Anomaly-to-ticket mapping parameters.
    pub mapping: MappingConfig,
    /// Spare vocabulary slots reserved for post-update templates.
    pub spare_vocab: usize,
    /// Messages sampled for codec mining.
    pub codec_sample: usize,
    /// Exclusion margin around tickets for training data (§4.2: 3 days).
    pub train_exclusion: u64,
    /// Amount of fresh data used by one adaptation (1 week).
    pub adapt_span: u64,
    /// False-alarm surge factor that triggers adaptation.
    pub fa_surge_factor: f32,
    /// Quantile of training scores used as the online trigger threshold.
    pub trigger_quantile: f32,
    /// LSTM hyper-parameters (vocab is overwritten from the codec).
    pub lstm: LstmDetectorConfig,
    /// GRU hyper-parameters (vocab overwritten).
    pub gru: GruDetectorConfig,
    /// Autoencoder hyper-parameters (vocab overwritten).
    pub autoencoder: AutoencoderConfig,
    /// OC-SVM hyper-parameters (vocab overwritten).
    pub ocsvm: OcsvmDetectorConfig,
    /// PCA hyper-parameters (vocab overwritten).
    pub pca: PcaDetectorConfig,
    /// HMM hyper-parameters (vocab overwritten).
    pub hmm: HmmDetectorConfig,
    /// Crash-safe checkpointing and resume.
    pub checkpoint: CheckpointConfig,
    /// Full [`MonthScores`] kept in memory (and in checkpoints): `0`
    /// retains every month (the default, what the paper's evaluation
    /// needs), `n > 0` retains only the trailing `n` months while
    /// [`MonthRollup`]s keep a bounded per-month summary for all of
    /// them. Retention is operational — it never changes scores,
    /// adaptation decisions or detector trajectories, which depend only
    /// on the current month.
    pub retain_months: usize,
    /// Worker threads for training shards and per-vPE scoring fan-out.
    /// `0` = auto (`available_parallelism` capped by the fleet size).
    /// Every value produces bit-identical results — threads are pure
    /// scheduling, never part of the trajectory.
    pub threads: usize,
    /// Grouping seed.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            detector: DetectorKind::Lstm,
            customize: true,
            adapt: true,
            mapping: MappingConfig::default(),
            spare_vocab: 24,
            codec_sample: 30_000,
            train_exclusion: 3 * DAY,
            adapt_span: 7 * DAY,
            fa_surge_factor: 4.0,
            trigger_quantile: 0.995,
            lstm: LstmDetectorConfig::default(),
            gru: GruDetectorConfig::default(),
            autoencoder: AutoencoderConfig::default(),
            ocsvm: OcsvmDetectorConfig::default(),
            pca: PcaDetectorConfig::default(),
            hmm: HmmDetectorConfig::default(),
            checkpoint: CheckpointConfig::default(),
            retain_months: 0,
            threads: 0,
            seed: 1,
        }
    }
}

/// Scored events for one tested month.
#[derive(Debug, Clone)]
pub struct MonthScores {
    /// Zero-based month index.
    pub month: usize,
    /// Scored events per vPE.
    pub per_vpe: Vec<Vec<ScoredEvent>>,
}

/// Bounded per-month summary kept for *every* tested month, even when
/// [`PipelineConfig::retain_months`] drops the full per-vPE score
/// vectors: a fixed handful of scalars per month instead of O(events).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonthRollup {
    /// Zero-based month index.
    pub month: usize,
    /// Scored events across the fleet this month.
    pub events: u64,
    /// Highest anomaly score this month (0 when no events).
    pub max_score: f32,
    /// Mean anomaly score this month (0 when no events).
    pub mean_score: f32,
}

impl MonthRollup {
    /// Summarizes one month's per-vPE score vectors.
    pub fn summarize(month: usize, per_vpe: &[Vec<ScoredEvent>]) -> MonthRollup {
        let mut events = 0u64;
        let mut max_score = f32::NEG_INFINITY;
        let mut sum = 0.0f64;
        for e in per_vpe.iter().flatten() {
            events += 1;
            max_score = max_score.max(e.score);
            sum += e.score as f64;
        }
        MonthRollup {
            month,
            events,
            max_score: if events == 0 { 0.0 } else { max_score },
            mean_score: if events == 0 { 0.0 } else { (sum / events as f64) as f32 },
        }
    }
}

/// A noteworthy condition the pipeline surfaced while running (carried
/// in [`PipelineRun::events`] and persisted across resume).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineEvent {
    /// A group produced *no* scores during trigger calibration, so its
    /// adaptation trigger was set to `+inf` — the false-alarm surge
    /// check cannot fire for that group until a later recalibration
    /// succeeds. Month 0 is the initial calibration.
    EmptyCalibration {
        /// Month whose scores were used for the calibration.
        month: usize,
        /// Group whose calibration was empty.
        group: usize,
    },
    /// A month boundary's checkpoint save failed every retry attempt
    /// and was skipped: the run continued, but a crash before the next
    /// successful save resumes from an older generation (replaying the
    /// months in between). The retry ledger for a run is the set of
    /// these events in [`PipelineRun::events`].
    CheckpointSkipped {
        /// Month whose boundary checkpoint was skipped.
        month: usize,
        /// Save attempts made (the configured retry budget).
        attempts: u32,
    },
}

/// The pipeline's output: everything the evaluation needs.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// Full scores for the retained tested months — every month when
    /// [`PipelineConfig::retain_months`] is 0 (the default), otherwise
    /// only the trailing window.
    pub months: Vec<MonthScores>,
    /// Bounded summary of *every* tested month, retained or not.
    pub rollups: Vec<MonthRollup>,
    /// Copy of the evaluated (non-maintenance) tickets.
    pub tickets: Vec<Ticket>,
    /// Months at which adaptation fired, per group.
    pub adaptations: Vec<(usize, usize)>,
    /// The grouping used.
    pub grouping: Grouping,
    /// Vocabulary width of the codec.
    pub vocab: usize,
    /// Per-vPE scheduled-maintenance windows `[report, repair]`.
    /// Warning clusters inside these windows are suppressed by the
    /// evaluation: maintenance is pre-scheduled, expected work (§3.2),
    /// so its chatter is mapped to the maintenance ticket rather than
    /// counted as a false alarm.
    pub suppression: Vec<Vec<(u64, u64)>>,
    /// Conditions surfaced during the run (empty calibrations, ...).
    pub events: Vec<PipelineEvent>,
}

impl PipelineRun {
    /// All scored events of one vPE across *retained* tested months,
    /// time-ordered.
    pub fn events_for(&self, vpe: usize) -> Vec<ScoredEvent> {
        let mut out: Vec<ScoredEvent> =
            self.months.iter().flat_map(|m| m.per_vpe[vpe].iter().copied()).collect();
        out.sort_by_key(|e| e.time);
        out
    }

    /// Number of vPEs.
    pub fn n_vpes(&self) -> usize {
        self.months.first().map_or(0, |m| m.per_vpe.len())
    }
}

/// Removes records inside `[report - exclusion, repair]` of any ticket
/// of the vPE (used to build "normal" training data). This follows the
/// paper's §4.2 rule — "we do not use any syslog data that is generated
/// within 3 days from a ticket generation to the time that the ticket is
/// marked as resolved" — i.e. the margin extends *before* the report;
/// the window closes at repair time. Both boundaries are inclusive.
pub fn ticket_free(
    stream: &LogStream,
    tickets: &[&Ticket],
    exclusion: u64,
    start: u64,
    end: u64,
) -> LogStream {
    let intervals: Vec<(u64, u64)> =
        tickets.iter().map(|t| (t.report_time.saturating_sub(exclusion), t.repair_time)).collect();
    let records: Vec<LogRecord> = stream
        .slice_time(start, end)
        .iter()
        .filter(|r| !intervals.iter().any(|&(lo, hi)| r.time >= lo && r.time <= hi))
        .copied()
        .collect();
    LogStream::from_records(records)
}

pub(crate) fn build_detector(
    cfg: &PipelineConfig,
    vocab: usize,
    group: usize,
    threads: usize,
) -> Box<dyn AnomalyDetector> {
    match cfg.detector {
        DetectorKind::Lstm => {
            let mut c = cfg.lstm.clone();
            c.vocab = vocab;
            c.threads = threads;
            c.seed ^= (group as u64) << 17;
            Box::new(LstmDetector::new(c))
        }
        DetectorKind::Gru => {
            let mut c = cfg.gru.clone();
            c.vocab = vocab;
            c.threads = threads;
            c.seed ^= (group as u64) << 17;
            Box::new(GruDetector::new(c))
        }
        DetectorKind::Autoencoder => {
            let mut c = cfg.autoencoder.clone();
            c.vocab = vocab;
            c.threads = threads;
            c.seed ^= (group as u64) << 17;
            Box::new(AutoencoderDetector::new(c))
        }
        DetectorKind::Ocsvm => {
            let mut c = cfg.ocsvm.clone();
            c.vocab = vocab;
            c.seed ^= (group as u64) << 17;
            Box::new(OcsvmDetector::new(c))
        }
        DetectorKind::Pca => {
            let mut c = cfg.pca.clone();
            c.vocab = vocab;
            c.seed ^= (group as u64) << 17;
            Box::new(PcaDetector::new(c))
        }
        DetectorKind::Hmm => {
            let mut c = cfg.hmm.clone();
            c.vocab = vocab;
            c.seed ^= (group as u64) << 17;
            Box::new(HmmDetector::new(c))
        }
    }
}

/// Quantile of the score distribution (used for the adaptation trigger).
/// `None` when there are no scores at all.
fn score_quantile(events: &[Vec<ScoredEvent>], q: f32) -> Option<f32> {
    let scores: Vec<f32> = events.iter().flat_map(|v| v.iter().map(|e| e.score)).collect();
    nfv_tensor::stats::quantile(&scores, q)
}

/// Trigger calibration that *surfaces* the empty-scores case instead of
/// silently disabling adaptation: an empty calibration still yields
/// `+inf` (there is no meaningful threshold), but the condition is
/// logged and recorded as a [`PipelineEvent::EmptyCalibration`].
fn calibrate_trigger(
    scores: &[Vec<ScoredEvent>],
    q: f32,
    month: usize,
    group: usize,
    events: &mut Vec<PipelineEvent>,
) -> f32 {
    match score_quantile(scores, q) {
        Some(t) => t,
        None => {
            eprintln!(
                "pipeline: warning: group {} produced no scores for trigger calibration \
                 at month {}; its adaptation trigger is disabled (+inf) until a later \
                 recalibration succeeds",
                group, month
            );
            events.push(PipelineEvent::EmptyCalibration { month, group });
            f32::INFINITY
        }
    }
}

/// Everything the monthly loop mutates: the live state of a run between
/// month boundaries. Checkpoints capture it; resume reconstructs it.
///
/// Ownership split (the fleet-scale memory model, see DESIGN.md): the
/// interned template codec is stored once, all per-*group* learned
/// state lives in the [`GroupModelStore`], and each vPE owns only its
/// trimmed encoded stream plus a compact [`VpeCursor`].
pub(crate) struct PipelineState {
    pub codec: LogCodec,
    pub cursor: Vec<VpeCursor>,
    pub streams: Vec<LogStream>,
    pub store: GroupModelStore,
    pub months: Vec<MonthScores>,
    pub rollups: Vec<MonthRollup>,
    pub adaptations: Vec<(usize, usize)>,
    pub events: Vec<PipelineEvent>,
    /// First month the loop still has to run (`completed + 1`).
    pub next_month: usize,
}

/// Mines the template codec from a month-0 sample. The sample
/// interleaves across vPEs (up to an equal share each) so that every
/// behaviour group's templates are mined; a plain prefix would fill the
/// cap from the first few vPEs only and leave other groups' templates
/// unmined (encoding to UNKNOWN fleet-wide).
pub(crate) fn mine_codec(trace: &FleetTrace, cfg: &PipelineConfig) -> LogCodec {
    let n_vpes = trace.config.n_vpes;
    let month1_end = month_start(1);
    let per_vpe_budget = (cfg.codec_sample / n_vpes).max(1);
    let mut sample = Vec::new();
    for vpe in 0..n_vpes {
        sample.extend(
            trace
                .messages(vpe)
                .iter()
                .take_while(|m| m.timestamp < month1_end)
                .take(per_vpe_budget)
                .cloned(),
        );
    }
    LogCodec::train(&sample, cfg.spare_vocab)
}

/// Encodes every vPE's month 0 and returns the per-vPE cursors.
/// Streams are encoded incrementally (month by month) because the codec
/// can gain templates at adaptation time; `trace.messages(vpe)` is
/// time-sorted, so each vPE keeps a cursor of how far it has been
/// encoded and month boundaries are found by binary search.
pub(crate) fn encode_month0(
    trace: &FleetTrace,
    codec: &LogCodec,
) -> (Vec<VpeCursor>, Vec<LogStream>) {
    let n_vpes = trace.config.n_vpes;
    let month1_end = month_start(1);
    let mut cursor = vec![VpeCursor::default(); n_vpes];
    let streams = (0..n_vpes)
        .map(|vpe| {
            let msgs = trace.messages(vpe);
            cursor[vpe].consumed = msgs.partition_point(|m| m.timestamp < month1_end);
            codec.encode_stream(&msgs[..cursor[vpe].consumed])
        })
        .collect();
    (cursor, streams)
}

/// Appends the raw messages up to `m_end` to every stream, encoded with
/// the current codec. The cursor already sits at the previous boundary,
/// so the new slice is found by one binary search and appended in place.
pub(crate) fn append_month(
    trace: &FleetTrace,
    codec: &LogCodec,
    streams: &mut [LogStream],
    cursor: &mut [VpeCursor],
    m_end: u64,
) {
    for (vpe, stream) in streams.iter_mut().enumerate() {
        let msgs = trace.messages(vpe);
        let hi = msgs.partition_point(|msg| msg.timestamp < m_end);
        stream.append(codec.encode_stream(&msgs[cursor[vpe].consumed..hi]));
        cursor[vpe].consumed = hi;
    }
}

/// The number of trailing records a trimmed stream must keep before a
/// month boundary so scoring the next month is bit-identical to scoring
/// against full history: the detector family's window length (the k
/// records preceding an in-month target / the width ending at it) plus
/// one more record, because [`LogStream::windows_in`] reads a window's
/// *predecessor* for the first element's gap feature — a record that
/// lands at index 0 would silently switch to the self-gap-0 rule.
pub(crate) fn scoring_context(cfg: &PipelineConfig) -> usize {
    let window = match cfg.detector {
        DetectorKind::Lstm => cfg.lstm.window,
        DetectorKind::Gru => cfg.gru.window,
        DetectorKind::Autoencoder => cfg.autoencoder.windowing.width,
        DetectorKind::Ocsvm => cfg.ocsvm.windowing.width,
        DetectorKind::Pca => cfg.pca.windowing.width,
        DetectorKind::Hmm => cfg.hmm.window,
    };
    window + 1
}

/// Trims every stream to its last `margin` records, advancing the
/// cursors' trimmed offsets. Run at each month boundary before the new
/// month is appended: everything older than the scoring context has
/// already been scored and trained on, and every later consumer (month
/// scoring, adaptation's in-month slices, monthly update) reads only
/// in-month data plus that context — so per-vPE memory stays O(month),
/// not O(history), with bit-identical results.
pub(crate) fn trim_streams(streams: &mut [LogStream], cursor: &mut [VpeCursor], margin: usize) {
    for (stream, cur) in streams.iter_mut().zip(cursor.iter_mut()) {
        let len = stream.len();
        if len > margin {
            let drop = len - margin;
            stream.drop_front(drop);
            cur.trimmed += drop;
        }
    }
}

/// Pools one group's raw messages over `[m_start, week_end)` — the fresh
/// sample an adaptation refreshes the codec with.
pub(crate) fn collect_week(
    trace: &FleetTrace,
    members_g: &[usize],
    m_start: u64,
    week_end: u64,
) -> Vec<SyslogMessage> {
    let mut week_msgs = Vec::new();
    for &v in members_g {
        let msgs = trace.messages(v);
        let lo = msgs.partition_point(|msg| msg.timestamp < m_start);
        let wk = msgs.partition_point(|msg| msg.timestamp < week_end);
        week_msgs.extend_from_slice(&msgs[lo..wk]);
    }
    week_msgs
}

/// Re-encodes one group's *retained* history up to `m_end` after a
/// codec refresh (ids of known templates are stable; only new ones
/// change). The codec maps each message to one record, so re-encoding
/// `msgs[trimmed..hi]` equals re-encoding the full history and dropping
/// the trimmed prefix — the trim offset is untouched and the cursor is
/// re-anchored to the boundary.
pub(crate) fn reencode_members(
    trace: &FleetTrace,
    codec: &LogCodec,
    streams: &mut [LogStream],
    cursor: &mut [VpeCursor],
    members_g: &[usize],
    m_end: u64,
) {
    for &v in members_g {
        let msgs = trace.messages(v);
        let hi = msgs.partition_point(|msg| msg.timestamp < m_end);
        streams[v] = codec.encode_stream(&msgs[cursor[v].trimmed..hi]);
        cursor[v].consumed = hi;
    }
}

/// Fingerprint binding a checkpoint to its configuration and trace.
/// Thread counts and the checkpoint knobs themselves are zeroed out
/// first: they are pure scheduling/operational settings that never
/// change the trajectory, so resuming with a different thread count or
/// checkpoint cadence is sound (and tested).
pub(crate) fn fingerprint(trace: &FleetTrace, cfg: &PipelineConfig) -> u64 {
    let mut c = cfg.clone();
    c.threads = 0;
    c.lstm.threads = 0;
    c.gru.threads = 0;
    c.autoencoder.threads = 0;
    c.checkpoint = CheckpointConfig::default();
    // Retention is operational too: it bounds what is *kept*, never
    // what is computed, so a resumed run may change it freely.
    c.retain_months = 0;
    let total_msgs: usize = (0..trace.config.n_vpes).map(|v| trace.messages(v).len()).sum();
    let desc = format!(
        "{:?}|vpes={} months={} msgs={} tickets={}",
        c,
        trace.config.n_vpes,
        trace.config.months,
        total_msgs,
        trace.tickets.len()
    );
    nfv_nn::checkpoint::fnv1a64(desc.as_bytes())
}

/// Builds the run's initial state: codec, month-0 streams, grouping,
/// per-group initial fits and trigger calibration.
fn init_state(trace: &FleetTrace, cfg: &PipelineConfig, threads: usize) -> PipelineState {
    let n_vpes = trace.config.n_vpes;
    let month1_end = month_start(1);

    let codec = mine_codec(trace, cfg);
    let vocab = codec.vocab_size();
    let (cursor, streams) = encode_month0(trace, &codec);

    let grouping = if cfg.customize {
        Grouping::cluster(&streams, vocab, 0, month1_end, 2..=6, cfg.seed)
    } else {
        Grouping::single(n_vpes)
    };
    let members = grouping.members();

    let all_tickets: Vec<Vec<&Ticket>> = (0..n_vpes).map(|v| trace.tickets_for(v)).collect();

    // Initial fit per group (parallel).
    let mut detectors: Vec<Box<dyn AnomalyDetector>> =
        (0..grouping.k).map(|g| build_detector(cfg, vocab, g, threads)).collect();
    {
        let streams_ref = &streams;
        let tickets_ref = &all_tickets;
        let members_ref = &members;
        std::thread::scope(|scope| {
            for (g, det) in detectors.iter_mut().enumerate() {
                let exclusion = cfg.train_exclusion;
                scope.spawn(move || {
                    let pooled: Vec<LogStream> = members_ref[g]
                        .iter()
                        .map(|&v| {
                            ticket_free(&streams_ref[v], &tickets_ref[v], exclusion, 0, month1_end)
                        })
                        .collect();
                    let refs: Vec<&LogStream> = pooled.iter().collect();
                    det.fit(&refs);
                });
            }
        });
    }

    // Trigger thresholds per group: month-0 scores from one batched
    // pass per group (bit-identical to per-vPE scoring).
    let mut events = Vec::new();
    let mut store = GroupModelStore::new(grouping, detectors);
    for g in 0..store.k() {
        let scores = store.score_group(g, &streams, 0, month1_end, threads);
        store.trigger[g] = calibrate_trigger(&scores, cfg.trigger_quantile, 0, g, &mut events);
    }

    PipelineState {
        codec,
        cursor,
        streams,
        store,
        months: Vec::new(),
        rollups: Vec::new(),
        adaptations: Vec::new(),
        events,
        next_month: 1,
    }
}

/// Runs one month of the protocol: encode, score, false-alarm check
/// (with adaptation when it surges), record scores, monthly update.
fn run_month(
    trace: &FleetTrace,
    cfg: &PipelineConfig,
    threads: usize,
    state: &mut PipelineState,
    m: usize,
) {
    let n_vpes = trace.config.n_vpes;
    let m_start = month_start(m);
    let m_end = month_start(m + 1);
    let all_tickets: Vec<Vec<&Ticket>> = (0..n_vpes).map(|v| trace.tickets_for(v)).collect();

    // Everything before this month except the scoring context has been
    // consumed — drop it, then append the new month.
    trim_streams(&mut state.streams, &mut state.cursor, scoring_context(cfg));
    append_month(trace, &state.codec, &mut state.streams, &mut state.cursor, m_end);

    // Score the month: one batched pass per group over all its member
    // streams (bit-identical to the per-vPE loop, see group_store docs).
    let mut per_vpe: Vec<Vec<ScoredEvent>> =
        state.store.score_fleet(&state.streams, m_start, m_end, threads);

    // False-alarm-rate check per group -> adaptation.
    for g in 0..state.store.k() {
        let mut fa = 0usize;
        for &v in &state.store.members[g] {
            let clusters = warning_clusters(&per_vpe[v], state.store.trigger[g], &cfg.mapping);
            let result = map_clusters(
                &clusters,
                &all_tickets[v].iter().map(|&&t| t).collect::<Vec<_>>(),
                &cfg.mapping,
            );
            fa += result.false_alarms;
        }
        let days = (m_end - m_start) as f32 / DAY as f32;
        let fa_rate = fa as f32 / days / state.store.members[g].len().max(1) as f32;
        let surged = match state.store.fa_baseline[g] {
            Some(base) => fa_rate > cfg.fa_surge_factor * (base + 0.02),
            None => false,
        };
        if surged && cfg.adapt {
            state.adaptations.push((m, g));
            // Refresh the codec with the first week of the month so new
            // templates earn dense ids, re-encode that week, and
            // fine-tune on it.
            let week_end = m_start + cfg.adapt_span;
            let week_msgs = collect_week(trace, &state.store.members[g], m_start, week_end);
            state.codec.refresh(&week_msgs);
            reencode_members(
                trace,
                &state.codec,
                &mut state.streams,
                &mut state.cursor,
                &state.store.members[g],
                m_end,
            );
            let adapt_streams: Vec<LogStream> = state.store.members[g]
                .iter()
                .map(|&v| {
                    ticket_free(
                        &state.streams[v],
                        &all_tickets[v],
                        cfg.train_exclusion,
                        m_start,
                        week_end,
                    )
                })
                .collect();
            let refs: Vec<&LogStream> = adapt_streams.iter().collect();
            state.store.detectors[g].adapt(&refs);

            // Re-score the month after the adaptation point (batched).
            let rescored = state.store.score_group(g, &state.streams, week_end, m_end, threads);
            for (&v, scored) in state.store.members[g].iter().zip(rescored) {
                per_vpe[v].retain(|e| e.time < week_end);
                per_vpe[v].extend(scored);
            }
            // Reset the trigger calibration on the adapted model.
            let scores = state.store.score_group(g, &state.streams, m_start, week_end, threads);
            state.store.trigger[g] =
                calibrate_trigger(&scores, cfg.trigger_quantile, m, g, &mut state.events);
            state.store.fa_baseline[g] = None;
        } else {
            state.store.fa_baseline[g] = Some(match state.store.fa_baseline[g] {
                Some(base) => 0.7 * base + 0.3 * fa_rate,
                None => fa_rate,
            });
        }
    }

    state.rollups.push(MonthRollup::summarize(m, &per_vpe));
    state.months.push(MonthScores { month: m, per_vpe });
    if cfg.retain_months > 0 {
        while state.months.len() > cfg.retain_months {
            state.months.remove(0);
        }
    }

    // Incremental monthly update on this month's ticket-free data.
    let streams_ref = &state.streams;
    let tickets_ref = &all_tickets;
    let GroupModelStore { members, detectors, .. } = &mut state.store;
    let members_ref: &Vec<Vec<usize>> = members;
    std::thread::scope(|scope| {
        for (g, det) in detectors.iter_mut().enumerate() {
            let exclusion = cfg.train_exclusion;
            scope.spawn(move || {
                let pooled: Vec<LogStream> = members_ref[g]
                    .iter()
                    .map(|&v| {
                        ticket_free(&streams_ref[v], &tickets_ref[v], exclusion, m_start, m_end)
                    })
                    .collect();
                let refs: Vec<&LogStream> = pooled.iter().collect();
                det.update(&refs);
            });
        }
    });
}

/// Checkpoint + crash-injection hook, called at every month boundary
/// (`m = 0` right after the initial fit). A checkpoint is written when
/// the boundary is on the `every` cadence — or unconditionally when an
/// injected crash fires here, so the recovery test observes the exact
/// state a real crash at this point would leave.
///
/// A failed save is retried with doubling backoff up to
/// [`CheckpointConfig::retry_attempts`]; past the budget the checkpoint
/// is *skipped* — a warning plus a [`PipelineEvent::CheckpointSkipped`]
/// entry — rather than aborting a multi-month run over one bad write.
/// The newest intact generation on disk stays the resume point.
fn checkpoint_boundary(
    cfg: &PipelineConfig,
    fp: u64,
    state: &mut PipelineState,
    m: usize,
) -> Result<(), PipelineError> {
    let ck = &cfg.checkpoint;
    let crash_after = matches!(ck.crash, Some(CrashPoint::AfterMonth(c)) if c == m);
    let torn_here = matches!(ck.crash, Some(CrashPoint::MidSave(c)) if c == m);
    if let Some(dir) = &ck.dir {
        if torn_here {
            pipeline_ckpt::write_torn(dir, fp, state, m)?;
            return Err(PipelineError::CrashInjected(CrashPoint::MidSave(m)));
        }
        if m.is_multiple_of(ck.every.max(1)) || crash_after {
            let keep = if ck.keep == 0 { CheckpointConfig::default().keep } else { ck.keep };
            let attempts = ck.retry_attempts.max(1);
            let mut backoff = std::time::Duration::from_millis(ck.retry_backoff_ms);
            let mut outcome = Ok(());
            for attempt in 0..attempts {
                if attempt > 0 {
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
                outcome = pipeline_ckpt::save(dir, fp, state, m, keep);
                if outcome.is_ok() {
                    break;
                }
            }
            if let Err(e) = outcome {
                eprintln!(
                    "pipeline: warning: checkpoint at month {} failed after {} attempt(s) \
                     ({}); continuing without it — the newest intact generation remains \
                     the resume point",
                    m, attempts, e
                );
                state.events.push(PipelineEvent::CheckpointSkipped { month: m, attempts });
            }
        }
    }
    if crash_after {
        return Err(PipelineError::CrashInjected(CrashPoint::AfterMonth(m)));
    }
    Ok(())
}

/// Per-vPE expected-work windows the evaluation suppresses: scheduled
/// maintenance tickets and planned migrations. Both get the same
/// treatment — the window plus the preceding predictive period, because
/// the preparatory work (drains, config pushes, pre-copy) starts before
/// the event proper.
fn suppression_windows(trace: &FleetTrace, cfg: &PipelineConfig) -> Vec<Vec<(u64, u64)>> {
    (0..trace.config.n_vpes)
        .map(|v| {
            let mut windows: Vec<(u64, u64)> = trace
                .tickets_for(v)
                .iter()
                .filter(|t| t.cause == TicketCause::Maintenance)
                .map(|t| {
                    (t.report_time.saturating_sub(cfg.mapping.predictive_period), t.repair_time)
                })
                .collect();
            // Planned migrations are expected work too: hypervisor
            // chatter, no ticket, no false alarm.
            windows.extend(
                trace
                    .migrations
                    .iter()
                    .filter(|m| m.vpe == v)
                    .map(|m| (m.start.saturating_sub(cfg.mapping.predictive_period), m.end)),
            );
            windows
        })
        .collect()
}

/// Assembles the run output from the final state.
fn finish(trace: &FleetTrace, cfg: &PipelineConfig, state: PipelineState) -> PipelineRun {
    let tickets = trace
        .tickets
        .iter()
        .filter(|t| t.cause != TicketCause::Maintenance && t.report_time >= month_start(1))
        .copied()
        .collect();
    let suppression = suppression_windows(trace, cfg);
    PipelineRun {
        months: state.months,
        rollups: state.rollups,
        tickets,
        adaptations: state.adaptations,
        grouping: state.store.grouping,
        vocab: state.codec.vocab_size(),
        suppression,
        events: state.events,
    }
}

/// Runs the full monthly protocol over a simulated trace.
///
/// With [`CheckpointConfig::dir`] set the run is crash-safe: each month
/// boundary atomically persists a generation-numbered checkpoint, and
/// [`CheckpointConfig::resume`] continues from the newest intact one
/// with bit-identical results (falling back past torn or corrupt
/// generations).
pub fn run_pipeline(
    trace: &FleetTrace,
    cfg: &PipelineConfig,
) -> Result<PipelineRun, PipelineError> {
    let n_months = trace.config.months;
    if n_months < 2 {
        return Err(PipelineError::TooFewMonths { months: n_months });
    }
    let threads = par::effective_threads(cfg.threads, trace.config.n_vpes);
    // One knob: the GEMM row-panel fan-out follows the pipeline's
    // `threads` setting (`0` = auto). Purely scheduling — parallel GEMM
    // is bit-identical to serial at every worker count — so resumed,
    // re-threaded, and single-core runs all produce the same bits.
    nfv_tensor::gemm::set_threads(cfg.threads);
    let fp = fingerprint(trace, cfg);

    let resumed = if cfg.checkpoint.resume && cfg.checkpoint.dir.is_some() {
        pipeline_ckpt::try_resume(trace, cfg, threads, fp)?
    } else {
        None
    };

    let mut state = match resumed {
        Some(state) => state,
        None => {
            let mut state = init_state(trace, cfg, threads);
            checkpoint_boundary(cfg, fp, &mut state, 0)?;
            state
        }
    };

    for m in state.next_month..n_months {
        run_month(trace, cfg, threads, &mut state, m);
        state.next_month = m + 1;
        checkpoint_boundary(cfg, fp, &mut state, m)?;
    }
    Ok(finish(trace, cfg, state))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Regression for the silent-disable bug: an empty score set used to
    // calibrate the trigger to +inf without a trace, permanently (and
    // invisibly) disabling adaptation for the group. The condition must
    // now surface as a typed event.
    #[test]
    fn empty_calibration_yields_inf_and_a_typed_event() {
        let mut events = Vec::new();
        let t = calibrate_trigger(&[Vec::new(), Vec::new()], 0.995, 3, 1, &mut events);
        assert!(t.is_infinite() && t > 0.0, "empty calibration must disable the trigger");
        assert_eq!(events, vec![PipelineEvent::EmptyCalibration { month: 3, group: 1 }]);
    }

    #[test]
    fn nonempty_calibration_emits_no_event() {
        let mut events = Vec::new();
        let scores =
            vec![vec![ScoredEvent { time: 10, score: 1.0 }, ScoredEvent { time: 20, score: 3.0 }]];
        let t = calibrate_trigger(&scores, 0.5, 0, 0, &mut events);
        assert!(t.is_finite());
        assert!(events.is_empty());
    }

    #[test]
    fn migration_windows_join_maintenance_in_the_suppression_set() {
        let mut sim = nfv_simnet::SimConfig::preset(nfv_simnet::SimPreset::Fast, 13);
        sim.migrations = 4;
        let trace = FleetTrace::simulate(sim);
        let cfg = PipelineConfig::default();
        let windows = suppression_windows(&trace, &cfg);
        assert_eq!(windows.len(), trace.config.n_vpes);
        for m in &trace.migrations {
            let expected = (m.start.saturating_sub(cfg.mapping.predictive_period), m.end);
            assert!(
                windows[m.vpe].contains(&expected),
                "migration {:?} missing from suppression",
                m
            );
        }
        // Maintenance windows are still present alongside.
        let maint = trace.tickets.iter().filter(|t| t.cause == TicketCause::Maintenance).count();
        let total: usize = windows.iter().map(|w| w.len()).sum();
        assert_eq!(total, maint + trace.migrations.len());
    }

    #[test]
    fn too_few_months_is_a_typed_error() {
        let mut sim = nfv_simnet::SimConfig::preset(nfv_simnet::SimPreset::Fast, 1);
        sim.n_vpes = 2;
        sim.months = 1;
        let trace = FleetTrace::simulate(sim);
        match run_pipeline(&trace, &PipelineConfig::default()) {
            Err(PipelineError::TooFewMonths { months: 1 }) => {}
            other => panic!("expected TooFewMonths, got {:?}", other.err().map(|e| e.to_string())),
        }
    }
}
