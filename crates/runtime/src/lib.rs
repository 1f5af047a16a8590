//! `zskip-runtime` — a batched CPU inference engine that turns the paper's
//! skip-sparsity into real wall-clock speedups.
//!
//! The training stack (`zskip-nn` + `zskip-core`) produces LSTMs whose
//! hidden state is mostly exact zeros; the cycle-level simulator
//! (`zskip-accel`) predicts the speedup custom hardware gets from skipping
//! them. This crate closes the loop **in software**: a serving engine
//! whose recurrent kernel really skips the `Wh` rows of jointly-zero
//! state columns, so the predicted gains become measurable CPU gains
//! (`cargo bench -p zskip-bench --bench runtime`).
//!
//! Three layers, all generic over the served model family:
//!
//! * [`FrozenModel`] + the frozen weights: one [`Frozen`] type composed
//!   of an input encoder, a recurrent cell and a head, with the five
//!   served families as aliases ([`FrozenCharLm`], [`FrozenGruCharLm`],
//!   [`FrozenWordLm`], [`FrozenSeqClassifier`], and the 8-bit
//!   [`FrozenQuantizedCharLm`], whose session state is `i8` codes —
//!   [`FrozenModel::State`]; see [`weights`] for the composition table)
//!   — inference-only parameter bundles extracted from trained models
//!   via the [`Freezable`](zskip_nn::Freezable) export (no grad
//!   buffers), exposing the `input_encode` / `recurrent_step` / `head`
//!   arithmetic,
//! * [`DynamicBatcher`] — one batched recurrent step: packs many sessions
//!   into a `B × dh` state matrix, derives the skip plan from the
//!   zero-run offset encoding of the *previous* step's pruned state
//!   (exactly the hardware's store-now-skip-next-step dataflow), and runs
//!   [`Matrix::matmul_sparse_rows`](zskip_tensor::Matrix::matmul_sparse_rows)
//!   with a dense fallback,
//! * [`Engine`] — the multi-user front-end: per-session `(h, c)` state,
//!   a submit/poll API, FIFO ready-queue coalescing (idle sessions cost
//!   nothing per step, so one engine can hold thousands of open
//!   streams), aggregate [`EngineStats`].
//!
//! For multi-threaded serving — shards, backpressure, TTLs — see the
//! `zskip-serve` crate, which drives one `Engine` per worker thread.
//!
//! Serving is **bit-identical** to evaluating the training model with the
//! same pruner: the step replicates `LstmCell::forward` operation for
//! operation and the sparse kernel is bit-equal to the dense product
//! (property-tested in `tests/proptests.rs`).
//!
//! # Quickstart: train → freeze → serve
//!
//! ```
//! use zskip_core::train::{train_char, CharTaskConfig};
//! use zskip_runtime::{Engine, EngineConfig, FrozenCharLm};
//!
//! // Train a pruned char-LM (tiny config so the doctest stays fast).
//! let config = CharTaskConfig {
//!     hidden: 32, corpus_chars: 8_000, batch: 8, bptt: 16,
//!     epochs: 1, lr: 3e-3, seed: 1,
//! };
//! let threshold = 0.3;
//! let mut outcome = train_char(&config, threshold);
//!
//! // Freeze the weights and start an engine at the training threshold.
//! let frozen = FrozenCharLm::freeze(&mut outcome.model);
//! let mut engine = Engine::new(frozen, EngineConfig::for_threshold(threshold));
//!
//! // Serve two concurrent streams; each step batches both sessions.
//! let (alice, bob) = (engine.open_session(), engine.open_session());
//! engine.submit(alice, 3).unwrap();
//! engine.submit(bob, 7).unwrap();
//! engine.step();
//! let next = engine.poll(alice).unwrap().expect("alice's next-token logits");
//! assert_eq!(next.logits.len(), outcome.corpus.vocab_size());
//! assert!(engine.stats().skip_fraction() > 0.0, "no MACs were skipped");
//! ```

// Every intrinsic and raw-pointer access lives in `zskip-tensor`.
#![forbid(unsafe_code)]

pub mod batcher;
pub mod engine;
pub mod model;
pub mod snapshot;
pub mod weights;

pub use batcher::{BatchStep, DynamicBatcher, SkipPolicy, StepStats};
pub use engine::{Engine, EngineConfig, EngineError, EngineStats, SessionId, StepResult};
pub use model::{
    FrozenModel, HeadScratch, InputSpec, ScalarDomain, SkipPlan, StateLanes, StateScalar,
    StepScratch, TokenDomain,
};
pub use snapshot::{ModelFamily, ModelSnapshot};
pub use weights::{
    Embedding, Frozen, FrozenCharLm, FrozenGru, FrozenGruCharLm, FrozenHead, FrozenLstm,
    FrozenQuantizedCharLm, FrozenSeqClassifier, FrozenWordLm, OneHot, QuantizedHead, ScalarInput,
};
// Re-exported so `EngineStats::stages` and `StepScratch::stages` are
// usable without naming the telemetry crate.
pub use zskip_telemetry::{Stage, StageBreakdown, StageClock};
