//! Regenerates the paper's figures and its implementation table.
//!
//! ```text
//! cargo run --release -p zskip-bench --bin repro -- [fig2|fig3|fig4|fig7|fig8|fig9|fig10|table|all] [--full]
//! ```
//!
//! With no name, every figure runs. Each prints its table and writes
//! `target/experiments/<file>.json`, the same file whether it runs alone
//! or under `all`. `--full` runs the training figures (2, 3, 4, 7) at
//! paper scale; the analytic ones accept and ignore it. An unknown name
//! or flag prints the usage line and exits 2.

use serde::{value::Value, Serialize};
use std::process::ExitCode;
use zskip_bench::figures::{self, Scale};

/// One figure: its command-line name, its result file's name, and the
/// run that prints its table and returns the result.
type Figure = (&'static str, &'static str, fn(Scale) -> Value);

const FIGURES: [Figure; 8] = [
    ("fig2", "fig2_char_sparsity", |s| {
        figures::fig2_char(s).to_value()
    }),
    ("fig3", "fig3_word_sparsity", |s| {
        figures::fig3_word(s).to_value()
    }),
    ("fig4", "fig4_mnist_sparsity", |s| {
        figures::fig4_digits(s).to_value()
    }),
    ("fig7", "fig7_batch_sparsity", |s| {
        figures::fig7_batch_sparsity(s).to_value()
    }),
    ("fig8", "fig8_performance", |_| {
        let grid = figures::fig8_9_grid();
        figures::print_fig8(&grid);
        grid.to_value()
    }),
    ("fig9", "fig9_energy", |_| {
        let grid = figures::fig8_9_grid();
        figures::print_fig9(&grid);
        grid.to_value()
    }),
    ("fig10", "fig10_peak_comparison", |_| {
        figures::fig10().to_value()
    }),
    ("table", "table_implementation", |_| {
        figures::table_implementation().to_value()
    }),
];

/// Writes a result as pretty JSON under `target/experiments/<file>.json`.
fn write_json(file: &str, value: &Value) {
    let dir = std::path::Path::new("target/experiments");
    std::fs::create_dir_all(dir).expect("create experiments dir");
    let path = dir.join(format!("{file}.json"));
    let body = serde_json::to_string_pretty(value).expect("serialize result");
    std::fs::write(&path, body).expect("write result file");
    eprintln!("wrote {}", path.display());
}

fn usage() -> ExitCode {
    let names: Vec<&str> = FIGURES.iter().map(|(name, ..)| *name).collect();
    eprintln!("usage: repro [{}|all] [--full]", names.join("|"));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut scale = Scale::Quick;
    let mut chosen: Option<String> = None;
    for arg in std::env::args().skip(1) {
        let known = arg == "all" || FIGURES.iter().any(|(name, ..)| *name == arg);
        match arg.as_str() {
            "--full" => scale = Scale::Full,
            _ if known && chosen.is_none() => chosen = Some(arg),
            _ => return usage(),
        }
    }
    let chosen = chosen.unwrap_or_else(|| "all".to_string());
    for (name, file, run) in FIGURES {
        if chosen == "all" || chosen == name {
            eprintln!("--- {name} ---");
            write_json(file, &run(scale));
        }
    }
    ExitCode::SUCCESS
}
