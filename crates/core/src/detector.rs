//! The common anomaly-detector interface.
//!
//! All detectors consume vocabulary-encoded [`LogStream`]s (see
//! [`crate::codec::LogCodec`]) and emit time-stamped anomaly scores where
//! *higher means more anomalous*. Thresholding, clustering into warning
//! signatures, and mapping to tickets happen downstream in
//! [`crate::mapping`] so that every detector is evaluated identically —
//! the paper applies the same customization and adaptation mechanisms to
//! LSTM, Autoencoder and OC-SVM for a fair comparison (§5.2).

use nfv_nn::checkpoint::CheckpointError;
use nfv_syslog::stream::WindowSet;
use nfv_syslog::LogStream;
use serde_json::Value;

/// One scored log event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredEvent {
    /// Event timestamp (epoch seconds).
    pub time: u64,
    /// Anomaly score; higher = more anomalous.
    pub score: f32,
}

/// A trainable anomaly detector over template streams.
///
/// `Send + Sync` because the pipeline moves detectors into per-group
/// training threads and shares them immutably across per-vPE scoring
/// workers ([`crate::par`]); scoring is `&self` by construction.
pub trait AnomalyDetector: Send + Sync {
    /// Short name for reports (e.g. `"lstm"`).
    fn name(&self) -> &'static str;

    /// Initial training on normal-period streams (ticket neighbourhoods
    /// already excluded by the caller).
    fn fit(&mut self, streams: &[&LogStream]);

    /// Incremental monthly update with fresh normal data (§4.3's online
    /// learning). Must be cheaper than a full refit.
    fn update(&mut self, streams: &[&LogStream]);

    /// Fast post-software-update adaptation with a *small* amount of new
    /// data (§4.3's transfer learning: copy the trained model, fine-tune
    /// top layers on ~1 week of data). The default falls back to
    /// [`AnomalyDetector::update`].
    fn adapt(&mut self, streams: &[&LogStream]) {
        self.update(streams);
    }

    /// Scores events of `stream` whose timestamps fall in `[start, end)`.
    fn score(&self, stream: &LogStream, start: u64, end: u64) -> Vec<ScoredEvent>;

    /// Scores many streams against the same model in one call, returning
    /// one event vector per input stream (same order).
    ///
    /// Contract: the result must be bitwise identical to calling
    /// [`AnomalyDetector::score`] once per stream. The default keeps that
    /// trivially true by fanning the streams out over up to `threads`
    /// workers in stream order ([`crate::par::par_blocks`]); detectors
    /// whose forward math is row-independent (the recurrent
    /// [`crate::seq_detector::SeqDetector`]) override this to run all
    /// streams' windows, in stream order, through a few large GEMM
    /// passes in fixed chunks. Each worker builds the windows of the
    /// chunks it scores, so no group-wide window set is held.
    fn score_batch(
        &self,
        streams: &[&LogStream],
        start: u64,
        end: u64,
        threads: usize,
    ) -> Vec<Vec<ScoredEvent>> {
        crate::par::par_blocks(streams, threads, |_, block| {
            block.iter().map(|s| self.score(s, start, end)).collect()
        })
    }

    /// Serializes the detector's complete learned state — model
    /// parameters *and* RNG position — as a tagged JSON value, so a
    /// restored detector continues bit-for-bit where this one stands
    /// (the crash-safe pipeline checkpoint, [`crate::pipeline_ckpt`]).
    fn to_state(&self) -> Value;

    /// Restores state captured by [`AnomalyDetector::to_state`] into a
    /// detector built with the *same configuration*. The state's tag
    /// must match [`AnomalyDetector::name`]; shape or tag mismatches
    /// surface as typed errors, never panics.
    fn load_state(&mut self, state: &Value) -> Result<(), CheckpointError>;
}

/// A next-template detector the streaming path can drive: it scores
/// prebuilt fixed-length windows. [`crate::online::OnlineMonitor`] and
/// [`crate::bundle::SharedModel`] hold one as a trait object, so every
/// recurrent cell serves through the same path; the trait object is
/// called once per batch, and the forward pass behind it stays
/// statically dispatched.
pub trait WindowScorer: AnomalyDetector {
    /// The window length k every scored window must have.
    fn window(&self) -> usize;

    /// Scores prebuilt windows, one [`ScoredEvent`] per window in window
    /// order. A window's score never depends on how it was batched.
    fn score_events(&self, ws: &WindowSet) -> Vec<ScoredEvent>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial detector used to pin down the trait's default behaviour.
    struct ConstDetector {
        fitted: bool,
        updates: usize,
    }

    impl AnomalyDetector for ConstDetector {
        fn name(&self) -> &'static str {
            "const"
        }
        fn fit(&mut self, _: &[&LogStream]) {
            self.fitted = true;
        }
        fn update(&mut self, _: &[&LogStream]) {
            self.updates += 1;
        }
        fn score(&self, stream: &LogStream, start: u64, end: u64) -> Vec<ScoredEvent> {
            stream
                .slice_time(start, end)
                .iter()
                .map(|r| ScoredEvent { time: r.time, score: 0.5 })
                .collect()
        }
        fn to_state(&self) -> Value {
            serde_json::json!({
                "detector": self.name(),
                "fitted": self.fitted,
                "updates": self.updates,
            })
        }
        fn load_state(&mut self, state: &Value) -> Result<(), CheckpointError> {
            crate::state::check_tag(state, self.name())?;
            self.fitted = crate::state::require(state, "fitted")?
                .as_bool()
                .ok_or_else(|| CheckpointError::MissingField("fitted".into()))?;
            self.updates = crate::state::require(state, "updates")?
                .as_u64()
                .ok_or_else(|| CheckpointError::MissingField("updates".into()))?
                as usize;
            Ok(())
        }
    }

    #[test]
    fn default_adapt_delegates_to_update() {
        let mut d = ConstDetector { fitted: false, updates: 0 };
        d.adapt(&[]);
        assert_eq!(d.updates, 1);
    }

    #[test]
    fn score_respects_time_bounds() {
        let d = ConstDetector { fitted: false, updates: 0 };
        let s = LogStream::from_records(vec![
            nfv_syslog::LogRecord { time: 5, template: 1 },
            nfv_syslog::LogRecord { time: 15, template: 2 },
        ]);
        let events = d.score(&s, 0, 10);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].time, 5);
    }
}
