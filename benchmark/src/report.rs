//! Metric tables, result files and the `--compare` mode.
//!
//! The tables below are the single list of what a run prints; a unit
//! test pins them to `BENCHMARK.json` (names and units), which in turn
//! holds the regression bounds `--compare` applies.

use crate::stats::{median, spread};
use crate::sysinfo::MACHINE_KEYS;
use serde::value::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub const SCHEMA: &str = "zskip-benchmark/v1";

/// `(name, unit)` of every end-to-end metric, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("tokens_per_s", "1/s"),
    ("token_latency_p50_us", "us"),
    ("cpu_us_per_token", "us"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric, printed by a traced run.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("tensor.gemm_us", "us"),
    ("tensor.gemm_rows_fetched", "count"),
    ("tensor.gemm_bytes", "B"),
    ("tensor.gemm_gbps", "GB/s"),
    ("tensor.memcpy_gbps", "GB/s"),
    ("tensor.lut_eval_us", "us"),
    ("runtime.step_us", "us"),
    ("runtime.step_dense_ref_us", "us"),
    ("runtime.skip_speedup", "x"),
    ("runtime.skip_ideal", "x"),
    ("runtime.skip_efficiency", "ratio"),
    ("runtime.stage_share.input_encode", "ratio"),
    ("runtime.stage_share.plan_build", "ratio"),
    ("runtime.stage_share.recurrent_gemm", "ratio"),
    ("runtime.stage_share.pointwise", "ratio"),
    ("runtime.stage_share.head", "ratio"),
    ("runtime.stage_share.delivery", "ratio"),
    ("runtime.engine_round_us", "us"),
    ("runtime.engine_self_us", "us"),
    ("runtime.lanes_per_step", "count"),
    ("runtime.skip_fraction", "ratio"),
    ("runtime.dense_fallback_share", "ratio"),
    ("runtime.session_open_close_us", "us"),
    ("runtime.snapshot_load_ms", "ms"),
    ("serve.round_us", "us"),
    ("serve.self_us", "us"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.open_close_us", "us"),
    ("serve.first_token_p50_us", "us"),
    ("serve.rejected", "count"),
    ("serve.evicted", "count"),
    ("wire.encode_submit_ns", "ns"),
    ("wire.decode_submit_ns", "ns"),
    ("wire.encode_result_ns", "ns"),
    ("wire.decode_result_ns", "ns"),
    ("wire.round_us", "us"),
    ("wire.self_us", "us"),
    ("wire.socket_echo_us", "us"),
    ("wire.bytes_per_token", "B"),
    ("wire.server_lane_p50_us", "us"),
    ("wire.connect_ms", "ms"),
    ("telemetry.overhead_pct", "%"),
    ("client.round_p50_us", "us"),
    ("client.latency_p50_us", "us"),
    ("client.latency_p90_us", "us"),
    ("client.latency_p99_us", "us"),
    ("client.latency_max_us", "us"),
    ("client.samples", "count"),
    ("client.driver_self_us", "us"),
    ("client.failed_ops_share", "ratio"),
    ("ledger.tensor_us", "us"),
    ("ledger.runtime_us", "us"),
    ("ledger.serve_us", "us"),
    ("ledger.wire_us", "us"),
    ("ledger.client_us", "us"),
    ("ledger.kernel_share_pct", "%"),
    ("ledger.residual_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// What one run of one workload produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Everything else worth keeping in the result file (checks, sample
    /// counts, the bound probes).
    pub details: Vec<(String, Value)>,
}

fn metrics_value(table: &[(&str, &str)], metrics: &[(&'static str, f64)]) -> Value {
    Value::Map(
        table
            .iter()
            .map(|(name, unit)| {
                let value = metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"))
                    .1;
                assert!(value.is_finite(), "metric {name} is {value}");
                (
                    name.to_string(),
                    Value::Map(vec![
                        ("value".into(), Value::Float(value)),
                        ("unit".into(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The one-line result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the metrics being exactly `table`.
pub fn result_line(table: &[(&str, &str)], outcome: &Outcome) -> Value {
    Value::Map(vec![
        ("correct".into(), Value::Bool(outcome.correct)),
        ("attempted".into(), Value::Int(outcome.attempted as i128)),
        ("failed".into(), Value::Int(outcome.failed as i128)),
        ("metrics".into(), metrics_value(table, &outcome.metrics)),
    ])
}

pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn run_file(workload: &str, seed: u64, trace: bool) -> PathBuf {
    out_dir().join(format!(
        "run_{workload}_seed{seed}_trace{}.json",
        trace as u8
    ))
}

pub fn write_json(path: &Path, value: &Value, pretty: bool) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    let text = if pretty {
        serde_json::to_string_pretty(value)
    } else {
        serde_json::to_string(value)
    }
    .map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(io)
}

pub fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

pub fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// One end-to-end metric's regression rule from `BENCHMARK.json`.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load_bounds() -> Result<Vec<Bound>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = read_json(&path)?;
    spec.get("end_to_end")
        .and_then(Value::as_seq)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: as_str(m.get("name")?)?.to_string(),
                lower_is_better: as_str(m.get("better")?)? == "lower",
                bound: as_f64(m.get("bound")?)?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// The untraced runs under `path` (a result file, or a directory of
/// them), as `workload → metric → values`, plus the distinct machine
/// fingerprints seen.
type Side = (BTreeMap<String, BTreeMap<String, Vec<f64>>>, Vec<String>);

fn load_side(path: &Path) -> Result<Side, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        for entry in std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))? {
            let p = entry.map_err(|e| e.to_string())?.path();
            if p.extension().is_some_and(|x| x == "json") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut runs: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut machines = Vec::new();
    for file in files {
        let run = read_json(&file)?;
        let is_untraced_run = run.get("schema").and_then(as_str) == Some(SCHEMA)
            && run.get("trace") == Some(&Value::Int(0));
        if !is_untraced_run {
            continue;
        }
        let malformed = || format!("{}: malformed result file", file.display());
        let workload = run.get("workload").and_then(as_str).ok_or_else(malformed)?;
        let fingerprint = run.get("fingerprint").ok_or_else(malformed)?;
        let machine = MACHINE_KEYS
            .iter()
            .map(|k| format!("{k}={:?}", fingerprint.get(k)))
            .collect::<Vec<_>>()
            .join(" ");
        if !machines.contains(&machine) {
            machines.push(machine);
        }
        let metrics = run
            .get("metrics")
            .and_then(Value::as_map)
            .ok_or_else(malformed)?;
        for (name, metric) in metrics {
            let value = metric.get("value").and_then(as_f64).ok_or_else(malformed)?;
            runs.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    if runs.is_empty() {
        return Err(format!("{}: no untraced result files", path.display()));
    }
    Ok((runs, machines))
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Regression,
    /// Run-to-run spread exceeds the bound: the comparison cannot tell
    /// "unchanged" from "moved".
    Unresolved,
}

fn verdict(base: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (mb, mc) = (median(base), median(change));
    let worse = if lower_is_better {
        (mc - mb) / mb
    } else {
        (mb - mc) / mb
    };
    let too_wide = |v: &[f64]| spread(v).is_some_and(|s| s > bound);
    let verdict = if too_wide(base) || too_wide(change) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Compares two sets of untraced runs under the `BENCHMARK.json` bounds.
/// Returns `Ok(true)` when nothing regressed (or the fingerprints differ
/// and the comparison is report-only).
pub fn compare(base: &Path, change: &Path) -> Result<bool, String> {
    let bounds = load_bounds()?;
    let ((base_runs, base_machines), (change_runs, change_machines)) =
        (load_side(base)?, load_side(change)?);
    let gating = base_machines == change_machines && base_machines.len() == 1;
    if !gating {
        println!("machine fingerprints differ — reporting only, not gating:");
        for m in base_machines.iter().chain(&change_machines) {
            println!("  {m}");
        }
    }
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>8} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "base median", "change median", "worse%", "bound%", "iqr%A", "iqr%B"
    );
    let mut clean = true;
    for (workload, base_metrics) in &base_runs {
        let Some(change_metrics) = change_runs.get(workload) else {
            println!("{workload:<16} missing on the change side");
            continue;
        };
        for b in &bounds {
            let (Some(a), Some(c)) = (base_metrics.get(&b.name), change_metrics.get(&b.name))
            else {
                continue;
            };
            let (worse, v) = verdict(a, c, b.lower_is_better, b.bound);
            clean &= v != Verdict::Regression;
            let pct = |s: Option<f64>| s.map_or("n/a".to_string(), |s| format!("{:.1}", s * 100.0));
            println!(
                "{workload:<16} {:<22} {:>14.4} {:>14.4} {:>8.1} {:>8.1} {:>7} {:>7}  {}",
                b.name,
                median(a),
                median(c),
                worse * 100.0,
                b.bound * 100.0,
                pct(spread(a)),
                pct(spread(c)),
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(clean || !gating)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(table: &[(&'static str, &'static str)]) -> Outcome {
        Outcome {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: table
                .iter()
                .enumerate()
                .map(|(i, (name, _))| (*name, 1.5 + i as f64 / 3.0))
                .collect(),
            details: Vec::new(),
        }
    }

    #[test]
    fn result_line_round_trips_with_exactly_the_contract_keys() {
        for table in [&END_TO_END[..], &PER_LAYER[..]] {
            let line = result_line(table, &outcome(table));
            let text = serde_json::to_string(&line).unwrap();
            assert!(!text.contains('\n'));
            let back: Value = serde_json::from_str(&text).unwrap();
            assert_eq!(back, line);
            let keys: Vec<&str> = back.as_map().unwrap().iter().map(|(k, _)| &**k).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = back.get("metrics").unwrap().as_map().unwrap();
            assert_eq!(metrics.len(), table.len());
            for ((name, metric), (want, unit)) in metrics.iter().zip(table) {
                assert_eq!(name, want);
                assert_eq!(metric.get("unit"), Some(&Value::Str(unit.to_string())));
                assert!(matches!(metric.get("value"), Some(Value::Float(_))));
            }
        }
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_a_bug_not_a_gap() {
        let mut o = outcome(&END_TO_END);
        o.metrics.pop();
        result_line(&END_TO_END, &o);
    }

    /// `BENCHMARK.json` and the tables above must name the same metrics
    /// with the same units, and the five workloads.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let spec = read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Value::as_seq)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        as_str(m.get("name").unwrap()).unwrap().to_string(),
                        as_str(m.get("unit").unwrap()).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_seq)
            .unwrap()
            .iter()
            .map(|w| as_str(w.get("name").unwrap()).unwrap())
            .collect();
        let named: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, named);
        assert!(load_bounds().unwrap().iter().all(|b| b.bound <= 0.25));
    }

    #[test]
    fn verdicts_apply_the_bound_and_refuse_wide_spreads() {
        let tight = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [111.0, 112.0, 110.0, 111.5, 110.5];
        assert_eq!(verdict(&tight, &tight, true, 0.05).1, Verdict::Ok);
        assert_eq!(verdict(&tight, &slower, true, 0.05).1, Verdict::Regression);
        // Higher-is-better: the same numbers are an improvement.
        assert_eq!(verdict(&tight, &slower, false, 0.05).1, Verdict::Ok);
        assert_eq!(verdict(&slower, &tight, false, 0.05).1, Verdict::Regression);
        let noisy = [80.0, 120.0, 100.0, 90.0, 115.0];
        assert_eq!(verdict(&tight, &noisy, true, 0.05).1, Verdict::Unresolved);
        // A single run has no spread to judge; the medians still gate.
        assert_eq!(
            verdict(&[100.0], &[120.0], true, 0.05).1,
            Verdict::Regression
        );
    }
}
