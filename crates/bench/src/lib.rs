//! Figure and table regeneration harness.
//!
//! One public function per figure of the paper's evaluation; the `repro`
//! binary runs them by name. Each function prints a human-readable table
//! and returns a serializable result that `repro` also drops as JSON
//! under `target/experiments/`.
//!
//! Training-based figures (2, 3, 4, 7) run at [`Scale::Quick`] by default
//! — small synthetic corpora and model widths chosen so the whole suite
//! finishes in minutes — and accept [`Scale::Full`] (`--full`) for
//! paper-scale dimensions. Simulator-based figures (8, 9, 10, the
//! implementation table) are analytic at paper scale either way.

#![forbid(unsafe_code)]

pub mod figures;
pub mod report;

pub use figures::Scale;
