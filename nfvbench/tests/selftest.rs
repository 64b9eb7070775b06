//! Self-test of the benchmark at tiny sizes: every workload, untraced
//! and traced, must print every metric `BENCHMARK.json` declares, finite
//! and with its declared unit, and the traced run must report its
//! coverage and overhead.

use serde_json::Value;
use std::path::Path;
use std::process::Command;

const WORKLOADS: &[&str] = &["serve-heartbeat", "serve-fleet", "pipeline-update", "fleet-month"];

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// Runs the benchmark from the repository root and returns the parsed
/// result line.
fn run(workload: &str, trace: bool) -> Value {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = Command::new(env!("CARGO_BIN_EXE_nfvbench"))
        .current_dir(&root)
        .args(["--workload", workload, "--seed", "3", "--seconds", "1", "--tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} trace={trace} failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("result line is JSON")
}

/// Checks the result's shape and that each declared metric is present,
/// finite and in its declared unit; returns the metrics object.
fn check(result: &Value, declared: &Value, label: &str) -> Value {
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true), "{label}: correct");
    let attempted = result.get("attempted").and_then(Value::as_u64).expect("attempted");
    let failed = result.get("failed").and_then(Value::as_u64).expect("failed");
    assert!(attempted >= 1, "{label}: attempted {attempted}");
    assert_eq!(failed, 0, "{label}: failed operations");
    let metrics = result.get("metrics").expect("metrics").clone();
    let list = declared.as_array().expect("metric list");
    assert_eq!(
        metrics.as_object().expect("metrics object").len(),
        list.len(),
        "{label}: metric count"
    );
    for m in list {
        let name = m.get("name").and_then(Value::as_str).expect("metric name");
        let unit = m.get("unit").and_then(Value::as_str).expect("metric unit");
        let got = metrics.get(name).unwrap_or_else(|| panic!("{label}: {name} missing"));
        assert_eq!(got.get("unit").and_then(Value::as_str), Some(unit), "{label}: {name} unit");
        let value = got.get("value").and_then(Value::as_f64).expect("numeric value");
        assert!(value.is_finite(), "{label}: {name} = {value}");
    }
    metrics
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let bench = benchmark_json();
    let field = |v: &Value, k: &str| v.get(k).cloned().unwrap_or_else(|| panic!("no {k}"));
    let workloads = field(&bench, "workloads");
    let names: Vec<&str> = workloads
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("workload name"))
        .collect();
    assert_eq!(names, WORKLOADS);
    for workload in WORKLOADS {
        let value = |metrics: &Value, name: &str| {
            field(&field(metrics, name), "value").as_f64().expect("numeric value")
        };
        let e2e = check(&run(workload, false), &field(&bench, "end_to_end"), workload);
        for name in e2e.as_object().expect("metrics").keys() {
            assert!(value(&e2e, name) > 0.0, "{workload}: {name} is not positive");
        }
        let layers = check(&run(workload, true), &field(&bench, "per_layer"), workload);
        assert!(value(&layers, "trace.covered_frac") > 0.0, "{workload}: no coverage");
        assert!(value(&layers, "trace.overhead_frac").is_finite(), "{workload}: overhead");
        assert!(value(&layers, "trace.spans") > 0.0, "{workload}: no spans");
    }
}

#[test]
fn bad_usage_exits_2_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--seed", "1"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_nfvbench")).args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
