//! Smoke test of the benchmark itself: every workload, untraced and
//! traced, at minimal size. Each run must pass its own output checks
//! (digests against the reference pass, traced replays against
//! untraced passes, store and saturation checks) and print every
//! metric `BENCHMARK.json` names, with its unit.
//!
//! Run with `cargo test --release --offline --manifest-path
//! benchmark/Cargo.toml`.

use serde::Value;
use std::path::PathBuf;
use std::process::Command;

struct Json(Value);

impl serde::Deserialize for Json {
    fn from_value(value: &Value) -> Result<Self, serde::DeError> {
        Ok(Json(value.clone()))
    }
}

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    match value {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        other => panic!("expected an object holding {key}, found {other}"),
    }
}

fn text(value: &Value) -> &str {
    match value {
        Value::String(s) => s,
        other => panic!("expected a string, found {other}"),
    }
}

fn number(value: &Value) -> f64 {
    match value {
        Value::F64(v) => *v,
        Value::I64(v) => *v as f64,
        Value::U64(v) => *v as f64,
        other => panic!("expected a number, found {other}"),
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let Json(spec) = serde_json::from_str(&spec).expect("BENCHMARK.json parses");
    let Value::Array(metrics) = field(&spec, section) else {
        panic!("{section} is not a list");
    };
    metrics
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_owned(),
                text(field(m, "unit")).to_owned(),
            )
        })
        .collect()
}

/// Runs the benchmark in its own scratch directory and returns the
/// parsed result line.
fn run(workload: &str, trace: bool) -> Value {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_noc-benchmark"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "smoke"])
        .current_dir(&dir)
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let Json(result) = serde_json::from_str(last).expect("the result line is JSON");
    assert_eq!(
        field(&result, "correct"),
        &Value::Bool(true),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(number(field(&result, "attempted")) >= 1.0);
    assert_eq!(number(field(&result, "failed")), 0.0);
    assert!(
        !dir.join(".bench_work").exists(),
        "{workload}: scratch files left behind"
    );
    result
}

fn check_metrics(result: &Value, section: &str) {
    let metrics = field(result, "metrics");
    let Value::Object(emitted) = metrics else {
        panic!("metrics is not an object");
    };
    let names = declared(section);
    assert_eq!(
        emitted.len(),
        names.len(),
        "emitted metrics differ from {section}"
    );
    for (name, unit) in names {
        let metric = field(metrics, &name);
        assert_eq!(text(field(metric, "unit")), unit, "unit of {name}");
        assert!(
            number(field(metric, "value")).is_finite(),
            "value of {name}"
        );
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for workload in ["figures-cold", "figures-warm", "kernel-light"] {
        check_metrics(&run(workload, false), "end_to_end");
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric_and_match_untraced_output() {
    for workload in ["figures-cold", "kernel-light"] {
        check_metrics(&run(workload, true), "per_layer");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_noc-benchmark"))
        .args(["--workload", "no-such-workload", "--seconds", "1"])
        .output()
        .expect("benchmark starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
