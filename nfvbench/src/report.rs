//! Metric names and units, run metadata, and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; the
//! self-test checks the two agree.

use crate::stats;
use crate::trace::Tracer;
use crate::Opts;
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// A served line slower than this counts as failed; the `serve-fleet`
/// ladder also stops at a rate whose `p99_ms` exceeds it.
pub const LATENCY_LIMIT_MS: f64 = 50.0;

/// End-to-end metrics: every untraced run prints all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("lines_per_s", "lines/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: every traced run prints all of them. A layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Serving runtime (serve-*).
    ("spsc.offer_ns", "ns"),
    ("load.late_ms", "ms"),
    ("serve.sweep_ns", "ns"),
    ("serve.busy_frac", "ratio"),
    ("serve.lines_per_sweep", "lines"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.latency_samples", "count"),
    ("serve.sustained_lines_per_s", "lines/s"),
    ("serve.peak_occupancy", "lines"),
    ("serve.dropped", "lines"),
    ("serve.degraded_episodes", "count"),
    // Admission (serve-*).
    ("supervisor.admit_ns", "ns"),
    ("supervisor.dup_frac", "ratio"),
    ("supervisor.reorder_frac", "ratio"),
    ("supervisor.parse_error_frac", "ratio"),
    // Monitor (serve-*).
    ("online.observe_ns", "ns"),
    ("online.windows_per_line", "ratio"),
    ("online.self_ns", "ns"),
    // Stage replays on the run's own inputs.
    ("syslog.parse_ns", "ns"),
    ("codec.encode_ns", "ns"),
    ("codec.repeat_text_frac", "ratio"),
    ("codec.unknown_frac", "ratio"),
    ("lstm_detector.score_ns", "ns"),
    // Pipeline stages (pipeline-update) and fleet stages (fleet-month).
    ("codec.train_s", "s"),
    ("codec.encode_s", "s"),
    ("grouping.cluster_s", "s"),
    ("lstm_detector.fit_s", "s"),
    ("lstm_detector.update_s", "s"),
    ("lstm_detector.adapt_s", "s"),
    ("pipeline.adaptations", "count"),
    ("group_store.score_s", "s"),
    ("group_store.windows_per_s", "1/s"),
    ("group_store.per_vpe_s", "s"),
    ("mapping.map_s", "s"),
    ("eval.sweep_prc_s", "s"),
    ("eval.best_f", "ratio"),
    ("pipeline_ckpt.save_s", "s"),
    ("simnet.synth_s", "s"),
    // The traced run itself.
    ("host.speed", "ratio"),
    ("trace.covered_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("run.nproc", "count"),
    ("run.threads", "count"),
];

/// Everything one run measured, plus its metadata.
pub struct Report {
    trace: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    meta: Map,
    threads: Map,
    spans: Map,
    out_dir: PathBuf,
    run_id: String,
    origin: std::time::Instant,
}

impl Report {
    /// An empty report for `opts`.
    pub fn new(opts: &Opts) -> Report {
        let mut meta = Map::new();
        meta.insert("workload".into(), json!(opts.workload.as_str()));
        meta.insert("seed".into(), json!(opts.seed));
        meta.insert("seconds".into(), json!(opts.seconds));
        meta.insert("trace".into(), json!(opts.trace));
        meta.insert("nproc".into(), json!(opts.nproc));
        meta.insert("commit".into(), json!(crate::commit()));
        let run_id = format!("{}-seed{}-{}", opts.workload, opts.seed, std::process::id());
        Report {
            trace: opts.trace,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            meta,
            threads: Map::new(),
            spans: Map::new(),
            out_dir: PathBuf::from(".bench_out"),
            run_id,
            origin: std::time::Instant::now(),
        }
    }

    /// Sets a declared metric; an undeclared name is a bug here.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        self.metrics.insert(name, value);
    }

    /// A metric set earlier in the run (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Adds operations attempted and failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a thread count the run used, by role.
    pub fn threads(&mut self, role: &str, n: usize) {
        self.threads.insert(role.into(), json!(n));
        let max = self.get("run.threads").max(n as f64);
        self.set("run.threads", max);
    }

    /// A thread count recorded earlier for `role` (0 when none).
    pub fn thread_count(&self, role: &str) -> usize {
        self.threads.get(role).and_then(Value::as_u64).unwrap_or(0) as usize
    }

    /// Sets `p50_ms`/`p99_ms` from time-ordered latency samples (ms)
    /// scaled to the nominal host speed (see [`crate::probe`]); each
    /// sample stands for `weight` lines. The samples are cut into
    /// `windows` consecutive windows and each figure is the median over
    /// windows of that window's percentile, so a stall of the shared
    /// host confined to a few windows does not decide the run's tail.
    /// The run record keeps the sample count and the wall-clock
    /// percentiles of `raw`.
    pub fn latency(&mut self, normalized: &[f64], raw: &[f64], weight: u64, windows: usize) {
        let size = normalized.len().div_ceil(windows.max(1)).max(1);
        self.set("p50_ms", stats::windowed_quantile(normalized, windows, 0.5));
        self.set("p99_ms", stats::windowed_quantile(normalized, windows, 0.99));
        let mut raw = raw.to_vec();
        self.meta.insert(
            "latency".into(),
            json!({
                "samples": raw.len() as u64 * weight,
                "window_samples": size as u64 * weight,
                "wall_p50_ms": stats::quantile(&mut raw, 0.5),
                "wall_p99_ms": stats::quantile(&mut raw, 0.99),
            }),
        );
    }

    /// Adds a named value to the run record.
    pub fn note(&mut self, key: &str, value: Value) {
        self.meta.insert(key.into(), value);
    }

    /// Records the wall-clock form of a normalized figure and the host
    /// speed the run saw, for the run record.
    pub fn wall(&mut self, name: &str, value: f64, host_speed: f64) {
        self.meta.insert(format!("wall_{name}"), json!(value));
        self.meta.insert("host_speed".into(), json!(host_speed));
    }

    /// Keeps the span summary and writes every span to the output
    /// directory.
    pub fn spans(&mut self, tracer: &Tracer) {
        for (name, s) in tracer.summary() {
            self.spans.insert(
                name.into(),
                json!({"count": s.count, "busy_ns": s.busy_ns, "self_ns": s.self_ns}),
            );
        }
        if std::fs::create_dir_all(&self.out_dir).is_ok() {
            let path = self.out_dir.join(format!("{}-spans.json", self.run_id));
            tracer.write_json(&path, &self.run_id, self.origin);
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// end-to-end metric (untraced) or per-layer metric (traced). Also
    /// writes the full record, metadata included, to the output
    /// directory and a summary to stderr.
    pub fn finish(mut self, nproc: usize) -> String {
        self.set("run.nproc", nproc as f64);
        let list = if self.trace { PER_LAYER } else { END_TO_END };
        let mut metrics = Map::new();
        for (name, unit) in list {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if self.trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            metrics.insert((*name).into(), json!({"value": value, "unit": *unit}));
        }
        let result = json!({
            "correct": true,
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        });
        self.meta.insert("threads".into(), Value::Object(self.threads));
        let meta = Value::Object(self.meta);
        eprintln!("nfvbench: {}", to_json(&meta));
        let record =
            json!({"meta": meta, "result": result.clone(), "spans": Value::Object(self.spans)});
        if std::fs::create_dir_all(&self.out_dir).is_ok() {
            let path = self.out_dir.join(format!("{}-trace{}.json", self.run_id, self.trace as u8));
            if let Err(e) = std::fs::write(&path, to_json(&record)) {
                eprintln!("warning: could not write {}: {}", path.display(), e);
            }
        }
        to_json(&result)
    }
}

/// Renders a value built in this module; such values always serialize.
pub fn to_json(value: &Value) -> String {
    serde_json::to_string(value).expect("benchmark values serialize")
}
