//! End-to-end test of the `nfvpredict` CLI: simulate -> train -> detect
//! on real files, exactly as a user would run it.

use nfvpredict::detect::{
    AnomalyDetector, LogCodec, LstmDetectorConfig, MappingConfig, ModelBundle, SeqDetector,
};
use nfvpredict::nn::{GruLayer, LstmLayer, RecurrentCell};
use nfvpredict::simnet::{LoadGen, LoadSpec};
use nfvpredict::syslog::{Severity, SyslogMessage};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nfvpredict"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nfvpredict_cli_{}", tag));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn simulate_train_detect_workflow() {
    let dir = temp_dir("workflow");
    let logs = dir.join("logs");

    // 1. Simulate a small deployment to raw files.
    let out = bin()
        .args(["simulate", "--out", logs.to_str().unwrap(), "--preset", "fast", "--seed", "5"])
        .output()
        .expect("run simulate");
    assert!(out.status.success(), "simulate failed: {}", String::from_utf8_lossy(&out.stderr));
    let log_files: Vec<_> = std::fs::read_dir(&logs)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "log"))
        .collect();
    assert_eq!(log_files.len(), 10, "fast preset simulates 10 vPEs");
    assert!(logs.join("tickets.tsv").exists());

    // Raw files must be real syslog lines.
    let first_log = std::fs::read_to_string(log_files[0].path()).unwrap();
    let first_line = first_log.lines().next().unwrap();
    assert!(first_line.starts_with('<'), "not a syslog line: {}", first_line);

    // 2. Train a model bundle on month 0 (small settings for test speed).
    let model = dir.join("model.json");
    let out = bin()
        .args([
            "train",
            "--logs",
            logs.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--months",
            "1",
            "--window",
            "6",
            "--epochs",
            "1",
            "--tickets",
            logs.join("tickets.tsv").to_str().unwrap(),
        ])
        .output()
        .expect("run train");
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(model.exists());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("saved model bundle"), "{}", stdout);

    // 3. Detect on one vPE's feed.
    let target = log_files[0].path();
    let out = bin()
        .args(["detect", "--model", model.to_str().unwrap(), "--log", target.to_str().unwrap()])
        .output()
        .expect("run detect");
    assert!(out.status.success(), "detect failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("scored"), "{}", stdout);
    assert!(stdout.contains("warning clusters"), "{}", stdout);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_rejects_bad_usage() {
    let out = bin().output().expect("run without args");
    assert!(!out.status.success());

    let out = bin().args(["simulate"]).output().expect("simulate without --out");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));

    let out = bin()
        .args(["train", "--logs", "/nonexistent-dir-xyz", "--model", "/tmp/x.json"])
        .output()
        .expect("train on missing dir");
    assert!(!out.status.success());

    let out = bin().args(["frobnicate", "--x", "1"]).output().expect("unknown command");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

/// Trains a tiny detector on the cadence `serve --rate 50 --seed 7`
/// generates (the recipe of its self-trained fallback), writes the
/// training feed as a syslog file, and returns the packed bundle.
fn tiny_bundle<C: RecurrentCell>(log: &Path) -> ModelBundle {
    let gen = LoadGen::new(LoadSpec { feeds: 2, base_rate: 50, seed: 7, ..Default::default() });
    let train = gen.training_messages(24);
    let lines: Vec<String> = train.iter().map(|m| m.to_line()).collect();
    std::fs::write(log, lines.join("\n") + "\n").unwrap();
    let codec = LogCodec::train(&train, 4);
    let mut det = SeqDetector::<C>::new(LstmDetectorConfig {
        vocab: codec.vocab_size(),
        window: 4,
        embed_dim: 6,
        hidden: 10,
        epochs: 3,
        max_train_windows: 2000,
        threads: 1,
        ..Default::default()
    });
    let stream = codec.encode_stream(&train);
    det.fit(&[&stream]);
    let max_score = det.score(&stream, 0, u64::MAX).iter().map(|e| e.score).fold(0.0, f32::max);
    ModelBundle::pack(&codec, &det, max_score * 1.05, &MappingConfig::default())
}

fn detect(model: &Path, log: &Path) -> Output {
    bin()
        .args(["detect", "--model", model.to_str().unwrap(), "--log", log.to_str().unwrap()])
        .output()
        .expect("run detect")
}

#[test]
fn gru_bundle_runs_under_detect_and_serve() {
    let dir = temp_dir("gru_bundle");
    let (model, log) = (dir.join("gru.json"), dir.join("feed.log"));
    tiny_bundle::<GruLayer>(&log).save(&model).unwrap();

    let out = detect(&model, &log);
    assert!(out.status.success(), "detect failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("scored"));

    let out = bin()
        .args(["serve", "--model", model.to_str().unwrap()])
        .args(["--feeds", "2", "--rate", "50", "--ticks", "40", "--seed", "7"])
        .output()
        .expect("run serve");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "serve failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("state=Healthy"), "{stdout}");
    let scored = stdout
        .split_whitespace()
        .find_map(|w| w.strip_prefix("scored="))
        .and_then(|n| n.parse::<u64>().ok())
        .expect("serve summary reports scored=");
    assert!(scored > 0, "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn detect_refuses_inconsistent_bundles_without_panicking() {
    let dir = temp_dir("bad_bundle");
    let (model, log) = (dir.join("bad.json"), dir.join("feed.log"));
    let good = tiny_bundle::<LstmLayer>(&log);

    let mut zero_window = good.clone();
    zero_window.window = 0;
    // A codec pattern mapped past the model's vocabulary, plus a feed
    // line that matches it, so scoring would index outside the model.
    let storm = "chassis alarm storm detected";
    let mut out_of_vocab = good;
    let vocab = out_of_vocab.model.dims[0];
    out_of_vocab.codec.patterns.push((storm.into(), vocab));
    let line = SyslogMessage {
        timestamp: 1_000_000,
        host: "vpe00".into(),
        process: "rpd".into(),
        severity: Severity::Info,
        text: storm.into(),
    };
    let feed = std::fs::read_to_string(&log).unwrap() + &line.to_line() + "\n";
    std::fs::write(&log, feed).unwrap();

    for (bundle, reason) in [(zero_window, "window"), (out_of_vocab, "vocabulary")] {
        bundle.save(&model).unwrap();
        let out = detect(&model, &log);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{reason}: detect accepted a bad bundle");
        assert_ne!(out.status.code(), Some(101), "{reason}: detect panicked: {stderr}");
        assert!(stderr.contains(reason), "{reason}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
