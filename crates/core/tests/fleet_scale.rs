//! Fleet-scale refactor gates: batched cross-vPE scoring must be
//! bit-identical to the one-vPE-at-a-time path at every thread count,
//! and the compact per-vPE cursor state must survive a checkpoint
//! roundtrip (with pre-cursor layouts cleanly refused, not
//! misinterpreted).

use nfv_detect::baselines::{PcaDetector, PcaDetectorConfig};
use nfv_detect::codec::LogCodec;
use nfv_detect::detector::AnomalyDetector;
use nfv_detect::group_store::GroupModelStore;
use nfv_detect::grouping::Grouping;
use nfv_detect::pipeline::{run_pipeline, DetectorKind, PipelineConfig, PipelineRun};
use nfv_detect::pipeline_ckpt::{self, PIPELINE_CKPT_FORMAT, PIPELINE_CKPT_LAYOUT};
use nfv_detect::seq_detector::{LstmDetector, LstmDetectorConfig};
use nfv_nn::checkpoint::{open_envelope, seal_envelope};
use nfv_simnet::{FleetTrace, SimConfig, SimPreset};
use nfv_syslog::time::month_start;
use nfv_syslog::LogStream;
use std::path::PathBuf;

/// A small fleet with trained per-group LSTMs and the encoded streams
/// to score: the realistic version of the unit-level store tests.
fn trained_store() -> (GroupModelStore, Vec<LogStream>) {
    let mut sim = SimConfig::preset(SimPreset::Fast, 23);
    sim.n_vpes = 6;
    sim.months = 2;
    let trace = FleetTrace::simulate(sim.clone());

    let mut sample = Vec::new();
    for v in 0..sim.n_vpes {
        sample.extend(trace.messages(v).iter().filter(|m| m.timestamp < month_start(1)).cloned());
    }
    let codec = LogCodec::train(&sample, 16);
    let vocab = codec.vocab_size();
    let streams: Vec<LogStream> =
        (0..sim.n_vpes).map(|v| codec.encode_stream(trace.messages(v))).collect();

    // Two groups by construction so batching actually crosses vPEs.
    let grouping = Grouping::from_assignment(vec![0, 1, 0, 1, 0, 1]);
    let detectors: Vec<Box<dyn AnomalyDetector>> = grouping
        .members()
        .iter()
        .enumerate()
        .map(|(g, members)| {
            let mut det = LstmDetector::new(LstmDetectorConfig {
                vocab,
                window: 4,
                embed_dim: 6,
                hidden: 10,
                epochs: 1,
                max_train_windows: 1_000,
                seed: 90 + g as u64,
                ..Default::default()
            });
            let pools: Vec<LogStream> = members
                .iter()
                .map(|&v| {
                    LogStream::from_records(streams[v].slice_time(0, month_start(1)).to_vec())
                })
                .collect();
            det.fit(&pools.iter().collect::<Vec<_>>());
            Box::new(det) as Box<dyn AnomalyDetector>
        })
        .collect();
    (GroupModelStore::new(grouping, detectors), streams)
}

#[test]
fn batched_lstm_scoring_is_bit_identical_to_per_vpe_path_at_threads_1_2_4() {
    let (store, streams) = trained_store();
    let (start, end) = (month_start(1), month_start(2));

    let reference: Vec<_> =
        (0..streams.len()).map(|v| store.detector_for(v).score(&streams[v], start, end)).collect();
    let scored: usize = reference.iter().map(|e| e.len()).sum();
    assert!(scored > 0, "fixture must produce events to compare");

    for threads in [1usize, 2, 4] {
        let batched = store.score_fleet(&streams, start, end, threads);
        assert_eq!(batched.len(), reference.len());
        for (v, (got, want)) in batched.iter().zip(&reference).enumerate() {
            assert_eq!(got.len(), want.len(), "threads {} vpe {} count", threads, v);
            for (a, b) in got.iter().zip(want.iter()) {
                assert_eq!(a.time, b.time, "threads {} vpe {}", threads, v);
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "threads {} vpe {} at t={}",
                    threads,
                    v,
                    a.time
                );
            }
        }
    }
}

#[test]
fn trait_default_score_batch_matches_per_stream_for_other_families() {
    // Non-LSTM detectors take the trait's default per-stream fan-out;
    // it must obey the same bitwise contract at any thread count.
    let (_, streams) = trained_store();
    let (start, end) = (month_start(1), month_start(2));
    let mut det = PcaDetector::new(PcaDetectorConfig::default());
    let train: Vec<&LogStream> = streams.iter().collect();
    det.fit(&train);

    let refs: Vec<&LogStream> = streams.iter().collect();
    let reference: Vec<_> = refs.iter().map(|s| det.score(s, start, end)).collect();
    for threads in [1usize, 2, 4] {
        let batched = det.score_batch(&refs, start, end, threads);
        for (got, want) in batched.iter().zip(&reference) {
            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(want.iter()) {
                assert_eq!((a.time, a.score.to_bits()), (b.time, b.score.to_bits()));
            }
        }
    }
}

// ---- Checkpoint roundtrip of the compact cursor state. ----

fn scratch_dir(label: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("nfv_fleet_scale_{}_{}", std::process::id(), label));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_trace() -> FleetTrace {
    let mut sim = SimConfig::preset(SimPreset::Fast, 19);
    sim.n_vpes = 3;
    sim.months = 3;
    FleetTrace::simulate(sim)
}

fn pca_cfg() -> PipelineConfig {
    PipelineConfig { detector: DetectorKind::Pca, threads: 1, ..PipelineConfig::default() }
}

fn assert_same_months(a: &PipelineRun, b: &PipelineRun, label: &str) {
    assert_eq!(a.months.len(), b.months.len(), "{label}");
    for (ma, mb) in a.months.iter().zip(&b.months) {
        assert_eq!(ma.per_vpe.len(), mb.per_vpe.len(), "{label}");
        for (ea, eb) in ma.per_vpe.iter().zip(&mb.per_vpe) {
            assert_eq!(ea.len(), eb.len(), "{label}");
            for (x, y) in ea.iter().zip(eb.iter()) {
                assert_eq!((x.time, x.score.to_bits()), (y.time, y.score.to_bits()), "{label}");
            }
        }
    }
}

#[test]
fn checkpoint_payload_carries_consistent_cursor_state() {
    let trace = small_trace();
    let dir = scratch_dir("cursor");
    let mut cfg = pca_cfg();
    cfg.checkpoint.dir = Some(dir.clone());
    run_pipeline(&trace, &cfg).unwrap();

    let &last = pipeline_ckpt::list_generations(&dir).iter().max().unwrap();
    let text = std::fs::read_to_string(pipeline_ckpt::generation_path(&dir, last)).unwrap();
    let payload = open_envelope(PIPELINE_CKPT_FORMAT, &text).unwrap();

    assert_eq!(
        payload.get("layout").and_then(|v| v.as_u64()),
        Some(PIPELINE_CKPT_LAYOUT),
        "checkpoints must be stamped with the current layout"
    );
    let cursor = payload.get("cursor").and_then(|v| v.as_array()).unwrap();
    let trimmed = payload.get("trimmed").and_then(|v| v.as_array()).unwrap();
    let stream_len = payload.get("stream_len").and_then(|v| v.as_array()).unwrap();
    assert_eq!(cursor.len(), trace.config.n_vpes);
    assert_eq!(trimmed.len(), trace.config.n_vpes);
    for v in 0..trace.config.n_vpes {
        let consumed = cursor[v].as_u64().unwrap();
        let trim = trimmed[v].as_u64().unwrap();
        let len = stream_len[v].as_u64().unwrap();
        assert!(trim <= consumed, "vpe {}: trimmed {} > consumed {}", v, trim, consumed);
        assert_eq!(consumed - trim, len, "vpe {}: retained records mismatch", v);
        assert!(trim > 0, "vpe {}: history trimming should have dropped scored months", v);
    }

    // The cursor state must also *work*: a resume from disk replays to
    // a bit-identical run.
    let baseline = run_pipeline(&trace, &pca_cfg()).unwrap();
    let mut resumed_cfg = pca_cfg();
    resumed_cfg.checkpoint.dir = Some(dir.clone());
    resumed_cfg.checkpoint.resume = true;
    let resumed = run_pipeline(&trace, &resumed_cfg).unwrap();
    assert_same_months(&baseline, &resumed, "resume from compact cursor checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pre_cursor_layout_checkpoints_are_refused_and_run_restarts_fresh() {
    let trace = small_trace();
    let dir = scratch_dir("layout1");
    let mut cfg = pca_cfg();
    cfg.checkpoint.dir = Some(dir.clone());
    run_pipeline(&trace, &cfg).unwrap();

    // Downgrade every generation to the pre-cursor layout (resealing
    // keeps the checksums valid, so only the layout gate can refuse
    // them — a layout-1 payload has no cursor/trimmed state to trust).
    for gen in pipeline_ckpt::list_generations(&dir) {
        let path = pipeline_ckpt::generation_path(&dir, gen);
        let mut payload =
            open_envelope(PIPELINE_CKPT_FORMAT, &std::fs::read_to_string(&path).unwrap()).unwrap();
        if let serde_json::Value::Object(obj) = &mut payload {
            obj.insert("layout".into(), serde_json::json!(1));
        }
        std::fs::write(&path, seal_envelope(PIPELINE_CKPT_FORMAT, payload)).unwrap();
    }

    let baseline = run_pipeline(&trace, &pca_cfg()).unwrap();
    let mut resume = pca_cfg();
    resume.checkpoint.dir = Some(dir.clone());
    resume.checkpoint.resume = true;
    let run = run_pipeline(&trace, &resume).unwrap();
    assert_same_months(&baseline, &run, "layout-1 dir must fall back to a fresh run");
    let _ = std::fs::remove_dir_all(&dir);
}
