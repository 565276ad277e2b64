//! Runs every workload at a tiny scale, untraced and traced, on a tuning
//! seed and a held-out seed. Each run must pass every output check and
//! print exactly the metrics `BENCHMARK.json` names, with their units.

use ringo_core::trace::json::{parse, JsonValue};
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric of one list of `BENCHMARK.json`.
fn declared(spec: &JsonValue, list: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = spec
        .get(list)
        .and_then(JsonValue::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect();
    out.sort();
    out
}

fn run(workload: &str, seed: &str, trace: &str) -> (std::process::Output, Option<JsonValue>) {
    let out = Command::new(env!("CARGO_BIN_EXE_paperbench"))
        .args(["--workload", workload, "--seed", seed, "--seconds", "0.3"])
        .args(["--trace", trace, "--scale", "0.02"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let last = stdout.lines().last().and_then(|l| parse(l).ok());
    (out, last)
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let spec = benchmark_json();
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, ["so_pipeline", "lj_kernels", "tw_edit_loop"]);
    for workload in &workloads {
        // Seed 1 is a tuning seed; 1000 is held out.
        for seed in ["1", "1000"] {
            for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
                let (out, result) = run(workload, seed, trace);
                let what = format!("{workload} seed {seed} trace {trace}");
                assert!(
                    out.status.success(),
                    "{what}: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
                let result = result.unwrap_or_else(|| panic!("{what}: no result line"));
                assert_eq!(
                    result.get("correct"),
                    Some(&JsonValue::Bool(true)),
                    "{what}"
                );
                assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
                assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
                let JsonValue::Obj(metrics) = result.get("metrics").expect("metrics") else {
                    panic!("{what}: metrics is not an object");
                };
                let mut emitted: Vec<(String, String)> = metrics
                    .iter()
                    .map(|(name, m)| {
                        let value = m.get("value").and_then(JsonValue::as_f64).expect("value");
                        assert!(value.is_finite(), "{what}: {name} = {value}");
                        if list == "end_to_end" {
                            assert!(value > 0.0, "{what}: end-to-end {name} reads {value}");
                        }
                        let unit = m.get("unit").and_then(JsonValue::as_str).expect("unit");
                        (name.clone(), unit.to_string())
                    })
                    .collect();
                emitted.sort();
                assert_eq!(emitted, declared(&spec, list), "{what}");
            }
        }
    }
}

#[test]
fn bad_arguments_print_no_result() {
    let (out, result) = run("no_such_workload", "1", "0");
    assert!(!out.status.success());
    assert!(result.is_none());
}
