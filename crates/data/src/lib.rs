//! Synthetic temporal datasets standing in for Penn Treebank and MNIST.
//!
//! The paper evaluates on the Penn Treebank corpus (character- and
//! word-level) and on sequential MNIST. Those artifacts are not
//! redistributable here, so this crate generates *seeded synthetic
//! equivalents* that preserve the properties the method and the
//! accelerator care about:
//!
//! * [`charlm::CharCorpus`] — a 50-symbol character stream with
//!   English-like letter statistics from a seeded order-2 Markov process
//!   (PTB-char uses a vocabulary of 50; the input stays one-hot),
//! * [`wordlm::WordCorpus`] — a 10k-vocabulary word stream with a Zipfian
//!   unigram law and sparse bigram structure (PTB-word; the input passes
//!   through a dense embedding),
//! * [`digits::DigitSet`] — 28×28 stroke-rendered digit images scanned
//!   pixel-by-pixel (sequential MNIST),
//! * [`batch`] — contiguous BPTT batching exactly as stateful LM training
//!   expects.
//!
//! Split sizes default to the paper's ratios, scaled down so experiments
//! finish on a laptop; every generator takes an explicit size so the
//! full-scale configuration remains one argument away.

#![forbid(unsafe_code)]

pub mod batch;
pub mod charlm;
pub mod digits;
pub mod wordlm;

pub use batch::{BpttBatcher, BpttWindow};
pub use charlm::CharCorpus;
pub use digits::{DigitImage, DigitSet};
pub use wordlm::WordCorpus;
