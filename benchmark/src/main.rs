//! `zskip-benchmark` — the closed-loop serving benchmark.
//!
//! ```text
//! zskip-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! zskip-benchmark [--seed N] [--seconds S] [--smoke]      # every workload
//! zskip-benchmark --compare BASE CHANGE
//! ```
//!
//! With `--workload`, runs that workload once and prints, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). Without it, runs every workload
//! untraced and traced, each in a process of its own so peak RSS and CPU
//! time are that workload's alone. See `README.md`.

mod driver;
mod fixture;
mod heap_layout;
mod probes;
mod report;
mod run;
mod span;
mod stats;
mod sysinfo;
mod workload;

use report::{END_TO_END, PER_LAYER, SCHEMA};
use run::RunConfig;
use serde::value::Value;
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: heap_layout::FreshProcessLayout = heap_layout::FreshProcessLayout;

/// The timed window every committed number uses.
const DEFAULT_SECONDS: f64 = 15.0;
/// `--smoke`: 1 s windows — a quick local check, not evidence. A traced
/// run splits its budget over three windows and the probes, so it gets
/// 5 s for its windows to be 1 s too.
const SMOKE_SECONDS: f64 = 1.0;
const SMOKE_SECONDS_TRACED: f64 = 5.0;

const USAGE: &str = "usage: zskip-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke] | --compare BASE CHANGE";

struct Args {
    workload: Option<&'static workload::Workload>,
    seed: u64,
    /// An explicit `--seconds`; otherwise the default or smoke length.
    seconds: Option<f64>,
    smoke: bool,
    trace: bool,
    compare: Option<(String, String)>,
}

impl Args {
    fn seconds(&self, trace: bool) -> f64 {
        self.seconds.unwrap_or(match (self.smoke, trace) {
            (false, _) => DEFAULT_SECONDS,
            (true, false) => SMOKE_SECONDS,
            (true, true) => SMOKE_SECONDS_TRACED,
        })
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        smoke: false,
        trace: false,
        compare: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(workload::find(&name).ok_or_else(|| {
                    let known: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Runs one workload, writes its result file (and span file when
/// traced), prints every metric, and the contract line last.
fn run_one(config: &RunConfig) -> Result<bool, String> {
    let name = config.workload.name;
    println!(
        "# {name} seed={} seconds={} trace={}",
        config.seed, config.seconds, config.trace as u8
    );
    let (outcome, spans) = run::execute(config)?;
    let table: &[(&str, &str)] = if config.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let line = report::result_line(table, &outcome);

    let mut file = vec![
        ("schema".to_string(), Value::Str(SCHEMA.into())),
        ("workload".to_string(), Value::Str(name.into())),
        ("seed".to_string(), Value::Int(config.seed as i128)),
        ("seconds".to_string(), Value::Float(config.seconds)),
        ("trace".to_string(), Value::Int(config.trace as i128)),
        ("fingerprint".to_string(), sysinfo::fingerprint()),
    ];
    file.extend(line.as_map().expect("result line is a map").iter().cloned());
    file.extend(outcome.details.iter().cloned());
    report::write_json(
        &report::run_file(name, config.seed, config.trace),
        &Value::Map(file),
        true,
    )?;
    if let Some(spans) = spans {
        let path = report::out_dir().join(format!("trace_{name}.json"));
        report::write_json(&path, &spans.to_value(), false)?;
    }

    let metrics = line.get("metrics").and_then(Value::as_map);
    for (name, metric) in metrics.expect("result line carries metrics") {
        let value = metric.get("value").and_then(report::as_f64);
        let unit = metric.get("unit").and_then(report::as_str);
        println!(
            "{name:<36} {:>16.4} {}",
            value.unwrap_or(f64::NAN),
            unit.unwrap_or("")
        );
    }
    for (key, value) in &outcome.details {
        let text = serde_json::to_string(value).map_err(|e| e.to_string())?;
        println!("# {key}: {text}");
    }
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(outcome.correct)
}

fn metric_of(path: &Path, name: &str) -> Option<f64> {
    let run = report::read_json(path).ok()?;
    report::as_f64(run.get("metrics")?.get(name)?.get("value")?)
}

/// Every workload, untraced then traced, one child process per run.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    for w in &workload::WORKLOADS {
        for trace in [false, true] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--trace", if trace { "1" } else { "0" }])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds(trace).to_string()])
                .status()
                .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
            all_correct &= status.success();
        }
    }
    // The repo's answer to the paper's "up to 5.2×" (a report line, not
    // a gated metric): same traffic, same shapes, 90% vs 0% of the state
    // gated shut.
    let tokens_per_s =
        |name: &str| metric_of(&report::run_file(name, args.seed, false), "tokens_per_s");
    if let (Some(sparse), Some(dense)) = (tokens_per_s("sparse_batch"), tokens_per_s("dense_batch"))
    {
        println!(
            "# sparse_vs_dense_speedup {:.3} x  = tokens_per_s(sparse_batch) {sparse:.1} / \
             tokens_per_s(dense_batch) {dense:.1}",
            sparse / dense
        );
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match (&args.compare, args.workload) {
        (Some((base, change)), _) => report::compare(Path::new(base), Path::new(change)),
        (None, Some(workload)) => run_one(&RunConfig {
            workload,
            seed: args.seed,
            seconds: args.seconds(args.trace),
            trace: args.trace,
        }),
        (None, None) => run_all(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("zskip-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
