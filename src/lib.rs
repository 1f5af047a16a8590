//! `zskip` — learning to skip ineffectual recurrent computations in LSTMs.
//!
//! A full reproduction of *Ardakani, Ji, Gross, "Learning to Skip
//! Ineffectual Recurrent Computations in LSTMs" (DATE 2019)*: hidden-state
//! threshold pruning with straight-through training, a zero-run offset
//! encoding of the sparse state, and a cycle-level simulator of the
//! proposed 4-tile / 192-PE accelerator together with ESE/CBSR baseline
//! models and a figure-regeneration harness.
//!
//! This crate is a façade: it re-exports the workspace crates under one
//! name so applications can depend on a single package.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tensor`] | `zskip-tensor` | matrices, 8-bit quantization, fixed point, LUT activations |
//! | [`nn`] | `zskip-nn` | LSTM + BPTT, layers, optimizers, task models |
//! | [`data`] | `zskip-data` | synthetic PTB-char/word and digit datasets |
//! | [`core`] | `zskip-core` | state pruning, sparsity analysis, offset encoding, sweeps |
//! | [`accel`] | `zskip-accel` | timing/energy/functional accelerator simulator |
//! | [`baselines`] | `zskip-baselines` | ESE and CBSR analytic models |
//! | [`runtime`] | `zskip-runtime` | batched CPU serving engine that skips ineffectual MACs — generic over the model family (LSTM/GRU char-LM, word-LM, classifier) |
//! | [`serve`] | `zskip-serve` | sharded multi-threaded serving layer: workers, backpressure, TTL, stats, `recv_any` multiplexing |
//! | [`telemetry`] | `zskip-telemetry` | lock-free latency histograms, per-stage step timing, bounded event rings (see `examples/serve.rs`) |
//! | [`wire`] | `zskip-wire` | framed TCP protocol, `TcpServer` front-end, blocking `RemoteClient`, frozen-model snapshots over the process boundary (see `docs/WIRE.md`) |
//!
//! # Quickstart
//!
//! ```
//! use zskip::accel::{LstmWorkload, Simulator, SkipTrace, SparsityProfile};
//!
//! // Simulate the paper's headline configuration: PTB-char, batch 8,
//! // 81% joint sparsity.
//! let sim = Simulator::paper();
//! let w = LstmWorkload::ptb_char(8);
//! let dense = sim.run_dense(&w);
//! let trace = SkipTrace::from_profile(
//!     w.dh, w.seq_len, w.batch, SparsityProfile::new(0.81, 0.0), 42);
//! let sparse = sim.run(&w, &trace);
//! assert!(sparse.speedup_over(&dense) > 4.5);
//! ```
//!
//! # Serving
//!
//! Trained pruned models can be served on CPU with real skipping — see
//! [`runtime`] for the train → freeze → serve quickstart, and
//! `examples/serve.rs` (`-- char|word|quantized`) for multi-stream
//! serving through the sharded `serve` front-end. All four task-model
//! families (char-LM, GRU char-LM, word-LM, sequential classifier)
//! freeze via `zskip::nn::Freezable` and serve through the same generic
//! engine — plus an 8-bit quantized char-LM family
//! (`zskip::runtime::FrozenQuantizedCharLm`) that serves the
//! accelerator's integer datapath with `i8` session state, bit-identical
//! to [`core::QuantizedLstm`]:
//!
//! ```
//! use zskip::nn::models::CharLm;
//! use zskip::runtime::{Engine, EngineConfig, FrozenCharLm};
//! use zskip::tensor::SeedableStream;
//!
//! let mut rng = SeedableStream::new(1);
//! let mut model = CharLm::new(30, 24, &mut rng);
//! let mut engine = Engine::new(
//!     FrozenCharLm::freeze(&mut model),
//!     EngineConfig::for_threshold(0.2),
//! );
//! let user = engine.open_session();
//! engine.submit(user, 5).unwrap();
//! engine.step();
//! assert!(engine.poll(user).unwrap().is_some());
//! ```
//!
//! See `examples/` for end-to-end walkthroughs (training with pruning,
//! running the simulator, stepping the dataflow, serving).

#![forbid(unsafe_code)]

pub use zskip_accel as accel;
pub use zskip_baselines as baselines;
pub use zskip_core as core;
pub use zskip_data as data;
pub use zskip_nn as nn;
pub use zskip_runtime as runtime;
pub use zskip_serve as serve;
pub use zskip_telemetry as telemetry;
pub use zskip_tensor as tensor;
pub use zskip_wire as wire;
// The vendored serde_json, re-exported so examples and downstream users
// can render the telemetry snapshots (`Serialize` types throughout)
// without declaring the vendored crate themselves.
pub use serde_json;
