//! Checks `BENCH_<lane>.json` evidence files against the
//! `zskip-bench-evidence/v1` schema.
//!
//! ```text
//! bench_compare --schema-only <file.json>...
//! ```
//!
//! Exits `0` when every file parsed, `2` on a usage error or when a file
//! was unreadable or violated the schema. Medians are gated by
//! `benchmark/`'s `--compare`, not here.

use std::process::ExitCode;
use zskip_bench::Evidence;

fn usage() -> ExitCode {
    eprintln!("usage: bench_compare --schema-only <file.json>...");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() != Some("--schema-only") {
        return usage();
    }
    let files: Vec<String> = args.collect();
    if files.is_empty() || files.iter().any(|f| f.starts_with("--")) {
        return usage();
    }
    for path in &files {
        let parsed = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|body| Evidence::from_json(&body));
        match parsed {
            Ok(e) => println!(
                "{path}: ok (lane {}, {} metrics{})",
                e.lane,
                e.metrics.len(),
                if e.smoke { ", smoke" } else { "" }
            ),
            Err(err) => {
                eprintln!("bench_compare: {path}: {err}");
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::SUCCESS
}
