//! Streaming (online) detection: the paper envisions "a runtime
//! predictive analysis system running in parallel with existing
//! reactive monitoring" (§1). This module packages a trained bundle
//! into a monitor that consumes one raw syslog message at a time and
//! emits warning signatures incrementally, applying the same
//! >=`min_cluster`-anomalies-within-`cluster_gap` rule as the offline
//! > evaluation.
//!
//! The monitor keeps only O(window) state per feed, and the heavy
//! immutable pieces — codec table and recurrent-model weights — live
//! behind [`Arc`]s so a fleet of feeds shares one model allocation (see
//! [`crate::bundle::SharedModel`]). The detector is any
//! [`WindowScorer`], so every recurrent cell serves through this one
//! path. One process can track a whole fleet.

use crate::codec::LogCodec;
use crate::detector::WindowScorer;
use crate::mapping::MappingConfig;
use crate::state::{
    array_field, bool_field, f32_from_bits, require, str_field, u64_field, usize_field,
};
use nfv_nn::checkpoint::CheckpointError;
use nfv_syslog::stream::{gap_feature, WindowSet};
use nfv_syslog::{LogRecord, SyslogMessage};
use serde_json::{json, Value};
use std::collections::VecDeque;
use std::mem;
use std::sync::Arc;

/// A warning emitted by the monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct Warning {
    /// Time of the first anomaly in the cluster.
    pub start: u64,
    /// Number of anomalous messages in the cluster so far.
    pub anomalies: usize,
    /// Highest anomaly score inside the cluster.
    pub peak_score: f32,
    /// The raw text of the highest-scoring message (the candidate
    /// signature for the operator).
    pub peak_text: String,
}

/// Incremental anomaly monitor for one syslog feed.
///
/// The codec and detector are shared (`Arc`), so cloning-cost per feed
/// is O(window) mutable state, not O(model). Build many monitors over
/// one model via [`crate::bundle::SharedModel`] or
/// [`OnlineMonitor::new_shared`].
pub struct OnlineMonitor {
    codec: Arc<LogCodec>,
    detector: Arc<dyn WindowScorer>,
    threshold: f32,
    mapping: MappingConfig,
    /// Trailing context records, `window + 1` long at most (every scored
    /// window then starts at least one record into the stream, so its
    /// first element has a real predecessor and gets a true gap feature,
    /// matching how the offline calibration scored).
    recent: VecDeque<LogRecord>,
    /// Open anomaly cluster, if any: (start, last, count, peak score,
    /// peak text).
    open: Option<(u64, u64, usize, f32, String)>,
    /// Whether the open cluster was already reported.
    reported: bool,
    /// Largest timestamp observed so far (for monotonicizing slightly
    /// out-of-order arrivals).
    last_time: u64,
    /// Score every `stride`-th eligible window (1 = every window). The
    /// serving runtime widens this in degraded mode to shed model work
    /// while every message still updates context and counters.
    stride: usize,
    /// Eligible-window counter driving the stride phase.
    stride_phase: u64,
    messages_seen: u64,
    anomalies_seen: u64,
    windows_scored: u64,
    windows_stride_skipped: u64,
    /// Reused by every [`OnlineMonitor::observe_batch`] call; not
    /// streaming state, so snapshots leave it out.
    bufs: WindowBufs,
}

/// The buffers one [`OnlineMonitor::observe_batch`] call builds its
/// windows in. Kept between calls, so once they have grown to the
/// largest batch a call allocates none.
#[derive(Default)]
struct WindowBufs {
    /// The batch's monotonicized, encoded records.
    batch: Vec<LogRecord>,
    /// Template id and gap feature of each context and batch record in
    /// order: the gap is computed once per record and copied into every
    /// window that holds it.
    ids: Vec<usize>,
    gaps: Vec<f32>,
    /// The windows to score, written into rows earlier batches kept.
    ws: WindowSet,
    /// Batch index of each scored window's target, for peak_text.
    scored_pos: Vec<usize>,
}

impl OnlineMonitor {
    /// Builds a monitor from the pieces of a trained bundle, taking
    /// sole ownership of the model. For a fleet of feeds over one
    /// model, prefer [`OnlineMonitor::new_shared`] (or
    /// [`crate::bundle::SharedModel::monitor`]) so the weights are
    /// allocated once, not per feed.
    pub fn new(
        codec: LogCodec,
        detector: Box<dyn WindowScorer>,
        threshold: f32,
        mapping: MappingConfig,
    ) -> OnlineMonitor {
        OnlineMonitor::new_shared(Arc::new(codec), Arc::from(detector), threshold, mapping)
    }

    /// Builds a monitor over an already-shared codec and detector.
    /// Behaviourally identical to [`OnlineMonitor::new`]; only the
    /// ownership of the immutable model differs.
    pub fn new_shared(
        codec: Arc<LogCodec>,
        detector: Arc<dyn WindowScorer>,
        threshold: f32,
        mapping: MappingConfig,
    ) -> OnlineMonitor {
        OnlineMonitor {
            codec,
            detector,
            threshold,
            mapping,
            recent: VecDeque::new(),
            open: None,
            reported: false,
            last_time: 0,
            stride: 1,
            stride_phase: 0,
            messages_seen: 0,
            anomalies_seen: 0,
            windows_scored: 0,
            windows_stride_skipped: 0,
            bufs: WindowBufs::default(),
        }
    }

    /// Number of messages consumed.
    pub fn messages_seen(&self) -> u64 {
        self.messages_seen
    }

    /// Number of above-threshold anomalies seen.
    pub fn anomalies_seen(&self) -> u64 {
        self.anomalies_seen
    }

    /// Windows actually run through the model.
    pub fn windows_scored(&self) -> u64 {
        self.windows_scored
    }

    /// Windows skipped by a stride > 1 (degraded-mode shedding).
    pub fn windows_stride_skipped(&self) -> u64 {
        self.windows_stride_skipped
    }

    /// Current scoring stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Sets the scoring stride: every `stride`-th eligible window is
    /// scored, the rest only update context. `stride` is clamped to at
    /// least 1. This is the serving runtime's graceful-degradation knob:
    /// at stride *s* the forward-pass cost per line drops by ~*s*× while
    /// parse, dedup, and cluster bookkeeping stay exact. Skipped windows
    /// cannot open or extend warning clusters, so sensitivity degrades
    /// proportionally — which is the documented trade, not an accident.
    pub fn set_stride(&mut self, stride: usize) {
        self.stride = stride.max(1);
    }

    /// The shared detector this monitor scores with.
    pub fn detector(&self) -> &Arc<dyn WindowScorer> {
        &self.detector
    }

    /// Feeds one message; returns a [`Warning`] when an anomaly cluster
    /// crosses the reporting rule with this message.
    ///
    /// A cluster is reported exactly once — at the moment its size first
    /// reaches `min_cluster` — and subsequent members extend the stats
    /// silently.
    pub fn observe(&mut self, message: &SyslogMessage) -> Option<Warning> {
        let mut warnings = Vec::new();
        self.observe_batch(std::slice::from_ref(message), &mut warnings);
        warnings.pop()
    }

    /// Feeds a batch of messages, scoring their windows in one chunked
    /// forward pass, and appends any warnings raised.
    ///
    /// Behaviourally identical to calling [`OnlineMonitor::observe`] per
    /// message — same monotonicization, same cluster rule, same warm-up
    /// — but the forward passes for the whole batch run as one batched
    /// GEMM stream instead of one tiny matmul chain per line, which is
    /// what makes the serving runtime's throughput target reachable.
    pub fn observe_batch(&mut self, messages: &[SyslogMessage], warnings: &mut Vec<Warning>) {
        if messages.is_empty() {
            return;
        }
        self.messages_seen += messages.len() as u64;
        let window = self.detector.window();
        let mut bufs = mem::take(&mut self.bufs);
        let WindowBufs { batch, ids, gaps, ws, scored_pos } = &mut bufs;

        // Monotonicize and encode the batch. A late message is treated
        // as happening "now" (retransmits and multi-process interleaving
        // are normal for syslog), so it is still scored and can still
        // extend a cluster.
        batch.clear();
        for m in messages {
            let time = m.timestamp.max(self.last_time);
            self.last_time = time;
            batch.push(LogRecord { time, template: self.codec.encode_text(&m.text) });
        }

        // Each context and batch record's id and gap to its predecessor.
        // The first record's gap is never read: every scored window
        // starts at least one record in.
        ids.clear();
        gaps.clear();
        let mut prev = None;
        for r in self.recent.iter().chain(batch.iter()) {
            ids.push(r.template);
            gaps.push(prev.map_or(0.0, |p| gap_feature(r.time - p)));
            prev = Some(r.time);
        }

        // Select the batch records to score: each needs `window + 1`
        // predecessors (context + batch prefix), thinned by the stride.
        let ctx = self.recent.len();
        let stride = self.stride as u64;
        let mut phase = self.stride_phase;
        let mut stride_skipped = 0u64;
        ws.clear();
        scored_pos.clear();
        for (pos, record) in batch.iter().enumerate() {
            let g = ctx + pos; // combined index of the target record
            if g < window + 1 {
                continue; // warm-up: not enough context yet
            }
            let turn = phase.is_multiple_of(stride);
            phase += 1;
            if !turn {
                stride_skipped += 1;
                continue;
            }
            ws.push(
                ids[g - window..g].iter().copied(),
                gaps[g - window..g].iter().copied(),
                record.template,
                record.time,
            );
            scored_pos.push(pos);
        }
        self.stride_phase = phase;
        self.windows_stride_skipped += stride_skipped;

        if !ws.is_empty() {
            self.windows_scored += ws.len() as u64;
            let events = self.detector.score_events(ws);
            for (e, &pos) in events.iter().zip(scored_pos.iter()) {
                if e.score < self.threshold {
                    continue;
                }
                self.anomalies_seen += 1;
                if let Some(w) = self.note_anomaly(e.time, e.score, &messages[pos].text) {
                    warnings.push(w);
                }
            }
        }

        // Retain the last `window + 1` records as context for the next
        // batch.
        self.recent.extend(&batch[batch.len().saturating_sub(window + 1)..]);
        while self.recent.len() > window + 1 {
            self.recent.pop_front();
        }
        self.bufs = bufs;
    }

    /// Serializes the monitor's mutable streaming state: trailing
    /// context, open cluster, stride position, and counters. The
    /// immutable model (codec, detector, threshold, mapping) is *not*
    /// included — a warm restart rebuilds the monitor from the same
    /// bundle and then calls [`OnlineMonitor::load_state`], after which
    /// scoring continues bit-identically.
    pub fn state_value(&self) -> Value {
        json!({
            "recent": self
                .recent
                .iter()
                .map(|r| json!([r.time, r.template]))
                .collect::<Vec<Value>>(),
            "open": match &self.open {
                Some((start, last, count, peak, peak_text)) => json!({
                    "start": start,
                    "last": last,
                    "count": count,
                    "peak_bits": peak.to_bits(),
                    "peak_text": peak_text,
                }),
                None => Value::Null,
            },
            "reported": self.reported,
            "last_time": self.last_time,
            "stride": self.stride,
            "stride_phase": self.stride_phase,
            "messages_seen": self.messages_seen,
            "anomalies_seen": self.anomalies_seen,
            "windows_scored": self.windows_scored,
            "windows_stride_skipped": self.windows_stride_skipped,
        })
    }

    /// Restores [`OnlineMonitor::state_value`] output into a monitor
    /// rebuilt over the same model.
    pub fn load_state(&mut self, v: &Value) -> Result<(), CheckpointError> {
        let mut recent = VecDeque::new();
        for r in array_field(v, "recent")? {
            let pair = r
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| CheckpointError::Invalid("recent entry is not a pair".into()))?;
            let num = |x: &Value| {
                x.as_u64().ok_or_else(|| CheckpointError::MissingField("recent".into()))
            };
            recent.push_back(LogRecord { time: num(&pair[0])?, template: num(&pair[1])? as usize });
        }
        let open = require(v, "open")?;
        let open = if open.is_null() {
            None
        } else {
            Some((
                u64_field(open, "start")?,
                u64_field(open, "last")?,
                usize_field(open, "count")?,
                f32_from_bits(require(open, "peak_bits")?, "peak_bits")?,
                str_field(open, "peak_text")?.to_string(),
            ))
        };
        self.recent = recent;
        self.open = open;
        self.reported = bool_field(v, "reported")?;
        self.last_time = u64_field(v, "last_time")?;
        self.stride = usize_field(v, "stride")?.max(1);
        self.stride_phase = u64_field(v, "stride_phase")?;
        self.messages_seen = u64_field(v, "messages_seen")?;
        self.anomalies_seen = u64_field(v, "anomalies_seen")?;
        self.windows_scored = u64_field(v, "windows_scored")?;
        self.windows_stride_skipped = u64_field(v, "windows_stride_skipped")?;
        Ok(())
    }

    /// Extends or opens the anomaly cluster with one above-threshold
    /// event, returning a [`Warning`] the moment the cluster first
    /// reaches `min_cluster`.
    fn note_anomaly(&mut self, time: u64, score: f32, text: &str) -> Option<Warning> {
        match &mut self.open {
            Some((_, last, count, peak, peak_text))
                if time.saturating_sub(*last) <= self.mapping.cluster_gap =>
            {
                *last = time;
                *count += 1;
                if score > *peak {
                    *peak = score;
                    *peak_text = text.to_string();
                }
            }
            _ => {
                self.open = Some((time, time, 1, score, text.to_string()));
                self.reported = false;
            }
        }
        let (start, _, count, peak, peak_text) = self.open.as_ref().expect("just set");
        if *count >= self.mapping.min_cluster && !self.reported {
            self.reported = true;
            return Some(Warning {
                start: *start,
                anomalies: *count,
                peak_score: *peak,
                peak_text: peak_text.clone(),
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::AnomalyDetector;
    use crate::seq_detector::{LstmDetector, LstmDetectorConfig};
    use nfv_syslog::message::Severity;

    fn msg(time: u64, text: &str) -> SyslogMessage {
        SyslogMessage {
            timestamp: time,
            host: "vpe00".into(),
            process: "rpd".into(),
            severity: Severity::Info,
            text: text.into(),
        }
    }

    /// Cyclic normal traffic the LSTM can learn, plus a burst generator.
    fn normal_messages(n: usize, start: u64, gap: u64) -> Vec<SyslogMessage> {
        (0..n)
            .map(|i| {
                let phase = i % 4;
                msg(
                    start + i as u64 * gap,
                    &format!("heartbeat stage{} counter {} status ok", phase, i),
                )
            })
            .collect()
    }

    fn trained_monitor() -> OnlineMonitor {
        let train = normal_messages(1200, 0, 60);
        let codec = LogCodec::train(&train, 4);
        let mut det = LstmDetector::new(LstmDetectorConfig {
            vocab: codec.vocab_size(),
            window: 4,
            embed_dim: 6,
            hidden: 10,
            epochs: 3,
            max_train_windows: 2000,
            ..Default::default()
        });
        let stream = codec.encode_stream(&train);
        det.fit(&[&stream]);
        // Threshold: above all training scores.
        let max_score =
            det.score(&stream, 0, u64::MAX).iter().map(|e| e.score).fold(0.0f32, f32::max);
        OnlineMonitor::new(codec, Box::new(det), max_score * 1.05, MappingConfig::default())
    }

    #[test]
    fn quiet_on_normal_traffic() {
        let mut monitor = trained_monitor();
        for m in normal_messages(300, 1_000_000, 60) {
            assert_eq!(monitor.observe(&m), None, "false warning at {}", m.timestamp);
        }
        assert_eq!(monitor.messages_seen(), 300);
    }

    #[test]
    fn burst_raises_exactly_one_warning() {
        let mut monitor = trained_monitor();
        for m in normal_messages(100, 0, 60) {
            monitor.observe(&m);
        }
        // A burst of 4 never-seen messages within seconds.
        let base = 100 * 60;
        let mut warnings = Vec::new();
        // Deliver the burst slightly out of order: the monitor must still
        // score every message (monotonicized) and raise one warning.
        for j in [0u64, 2, 1, 3] {
            let m = msg(base + j * 10, "chassis alarm unknown fault storm detected now");
            if let Some(w) = monitor.observe(&m) {
                warnings.push(w);
            }
        }
        assert_eq!(warnings.len(), 1, "cluster must be reported exactly once");
        let w = &warnings[0];
        assert_eq!(w.start, base);
        assert_eq!(w.anomalies, 2, "reported at the moment the cluster forms");
        assert!(w.peak_text.contains("chassis alarm"));
        assert!(monitor.anomalies_seen() >= 2);
    }

    #[test]
    fn isolated_anomaly_is_not_reported() {
        let mut monitor = trained_monitor();
        for m in normal_messages(100, 0, 60) {
            monitor.observe(&m);
        }
        // One odd message, then normal traffic again. The follow-up
        // messages arrive 2 minutes apart: even if the odd template in
        // their context windows inflates a score or two, nothing can
        // chain into a <1-minute cluster.
        let odd = msg(100 * 60, "completely unexpected solitary event occurred here");
        assert_eq!(monitor.observe(&odd), None);
        for m in normal_messages(50, 100 * 60 + 600, 120) {
            assert_eq!(monitor.observe(&m), None);
        }
    }

    /// The batched path must be behaviourally identical to per-message
    /// observe: same warnings, same counters, for any batch split.
    #[test]
    fn observe_batch_matches_sequential_observe() {
        let mut traffic = normal_messages(120, 0, 60);
        for j in 0..4u64 {
            traffic.push(msg(120 * 60 + j * 10, "chassis alarm unknown fault storm detected now"));
        }
        traffic.extend(normal_messages(40, 121 * 60, 60));

        let mut sequential = trained_monitor();
        let mut seq_warnings = Vec::new();
        for m in &traffic {
            seq_warnings.extend(sequential.observe(m));
        }

        for chunk in [1usize, 3, 7, 64, 1000] {
            let mut batched = trained_monitor();
            let mut warnings = Vec::new();
            for c in traffic.chunks(chunk) {
                batched.observe_batch(c, &mut warnings);
            }
            assert_eq!(warnings, seq_warnings, "chunk size {} diverged", chunk);
            assert_eq!(batched.messages_seen(), sequential.messages_seen());
            assert_eq!(batched.anomalies_seen(), sequential.anomalies_seen());
            assert_eq!(batched.windows_scored(), sequential.windows_scored());
        }
    }

    /// A stride > 1 sheds LSTM work proportionally while every message
    /// still updates context and counters.
    #[test]
    fn stride_sheds_windows_proportionally() {
        let mut monitor = trained_monitor();
        monitor.set_stride(4);
        assert_eq!(monitor.stride(), 4);
        let traffic = normal_messages(205, 0, 60);
        let mut warnings = Vec::new();
        monitor.observe_batch(&traffic, &mut warnings);
        assert_eq!(monitor.messages_seen(), 205);
        // 5 warm-up messages (window 4 + 1), then every 4th window scored.
        let eligible = monitor.windows_scored() + monitor.windows_stride_skipped();
        assert_eq!(eligible, 200);
        assert_eq!(monitor.windows_scored(), 50);
        assert_eq!(monitor.windows_stride_skipped(), 150);
        // Back to stride 1, everything is scored again.
        monitor.set_stride(1);
        monitor.observe_batch(&normal_messages(50, 100_000, 60), &mut warnings);
        assert_eq!(eligible + 50, monitor.windows_scored() + monitor.windows_stride_skipped());
        assert_eq!(monitor.windows_stride_skipped(), 150);
    }

    /// Splitting a stream at an arbitrary point, snapshotting, and
    /// resuming on a freshly built monitor must be indistinguishable
    /// from one uninterrupted run — including mid-cluster state.
    #[test]
    fn state_roundtrip_resumes_bit_identically() {
        let mut traffic = normal_messages(120, 0, 60);
        for j in 0..4u64 {
            traffic.push(msg(120 * 60 + j * 10, "chassis alarm unknown fault storm detected now"));
        }
        traffic.extend(normal_messages(60, 121 * 60, 60));

        let mut full = trained_monitor();
        let mut full_warnings = Vec::new();
        full.observe_batch(&traffic, &mut full_warnings);

        // Split right inside the anomaly burst so the open cluster is
        // part of the snapshotted state.
        let (head, tail) = traffic.split_at(122);
        let mut first = trained_monitor();
        let mut warnings = Vec::new();
        first.observe_batch(head, &mut warnings);
        let text = first.state_value().to_string();
        let mut resumed = trained_monitor();
        resumed.load_state(&serde_json::from_str(&text).unwrap()).unwrap();
        resumed.observe_batch(tail, &mut warnings);

        assert_eq!(warnings, full_warnings);
        assert_eq!(resumed.messages_seen(), full.messages_seen());
        assert_eq!(resumed.anomalies_seen(), full.anomalies_seen());
        assert_eq!(resumed.windows_scored(), full.windows_scored());
        assert_eq!(resumed.windows_stride_skipped(), full.windows_stride_skipped());
    }

    #[test]
    fn two_separate_bursts_give_two_warnings() {
        let mut monitor = trained_monitor();
        for m in normal_messages(100, 0, 60) {
            monitor.observe(&m);
        }
        let mut count = 0;
        for (burst, base) in [(0u64, 6000u64), (1, 12_000)] {
            let _ = burst;
            for j in 0..3 {
                let m = msg(base + j * 10, "chassis alarm unknown fault storm detected now");
                if monitor.observe(&m).is_some() {
                    count += 1;
                }
            }
            // Re-establish normal context between bursts.
            for m in normal_messages(30, base + 300, 60) {
                monitor.observe(&m);
            }
        }
        assert_eq!(count, 2);
    }
}
