//! Figure and table regeneration harness.
//!
//! One public function per figure of the paper's evaluation; the
//! `src/bin/fig*.rs` binaries are thin wrappers. Each function prints a
//! human-readable table and returns a serializable result that the
//! binaries also drop as JSON under `target/experiments/`.
//!
//! Training-based figures (2, 3, 4, 7) run at [`Scale::Quick`] by default
//! — small synthetic corpora and model widths chosen so the whole suite
//! finishes in minutes — and accept [`Scale::Full`] (`--full`) for
//! paper-scale dimensions. Simulator-based figures (8, 9, 10, the
//! implementation table) are analytic at paper scale either way.

#![forbid(unsafe_code)]

pub mod evidence;
pub mod figures;
pub mod report;

pub use evidence::{Evidence, Machine, EVIDENCE_SCHEMA};
pub use figures::Scale;

use std::path::PathBuf;

/// Output directory for machine-readable experiment results.
pub fn output_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Writes a serializable result as pretty JSON under
/// `target/experiments/<name>.json`.
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) {
    let path = output_dir().join(format!("{name}.json"));
    let body = serde_json::to_string_pretty(value).expect("serialize result");
    std::fs::write(&path, body).expect("write result file");
    eprintln!("wrote {}", path.display());
}

/// Parses the common `--full` flag from process args.
pub fn scale_from_args() -> Scale {
    if std::env::args().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Quick
    }
}
