//! From-scratch LSTM training framework for the `zskip` reproduction.
//!
//! The paper trains LSTMs whose hidden state is thresholded in the forward
//! pass while gradients flow to the dense state (straight-through
//! estimator, Eq. 6). No off-the-shelf autograd exposes that cleanly, so
//! this crate implements the needed stack directly:
//!
//! * [`LstmCell`] / [`LstmLayer`] — batched forward and full
//!   backpropagation-through-time, with a [`StateTransform`] hook on the
//!   recurrent path where the pruner plugs in (the GRU twins share the
//!   [`Gates`] weight bundle and the [`Layer`] unroll),
//! * [`Linear`], [`Embedding`], [`Dropout`] — the surrounding layers used
//!   by the three tasks (char LM, word LM, sequential image
//!   classification),
//! * [`loss`] — fused softmax + cross-entropy,
//! * [`optim`] — Adam and SGD with gradient clipping and learning-rate
//!   decay, driven through a parameter-visitor so optimizers stay decoupled
//!   from model structure,
//! * [`models`] — the paper's three task models, assembled from an
//!   input encoder, a [`Recurrent`](models::Recurrent) layer and a
//!   softmax head; a new trained family is an encoder plus an alias
//!   (e.g. `Lm<Embedded, GruLayer>` for a GRU word-LM), a new cell one
//!   `Recurrent` impl,
//! * [`Freezable`] — the stable parameter-export contract the serving
//!   runtime's per-family freezers consume,
//! * [`metrics`] — bits-per-character, perplexity-per-word,
//!   misclassification error rate.
//!
//! Gate layout follows the paper's Eq. 1 ordering `[f, i, o, g]`.
//!
//! # Example
//!
//! ```
//! use zskip_nn::LstmCell;
//! use zskip_tensor::{Matrix, SeedableStream};
//!
//! let mut rng = SeedableStream::new(1);
//! let cell = LstmCell::new(4, 8, &mut rng);
//! let x = Matrix::zeros(2, 4);
//! let h = Matrix::zeros(2, 8);
//! let c = Matrix::zeros(2, 8);
//! let step = cell.forward(&x, &h, &c);
//! assert_eq!(step.h().rows(), 2);
//! assert_eq!(step.h().cols(), 8);
//! ```

#![forbid(unsafe_code)]

pub mod dropout;
pub mod embedding;
pub mod freeze;
pub mod gates;
pub mod gru;
pub mod init;
pub mod linear;
pub mod loss;
pub mod lstm;
pub mod metrics;
pub mod models;
pub mod optim;
pub mod params;
pub mod stack;

pub use dropout::{Dropout, DropoutMask};
pub use embedding::Embedding;
pub use freeze::Freezable;
pub use gates::{Gates, Layer, SequenceCache};
pub use gru::{GruCell, GruLayer, GruSequenceCache, GruStep};
pub use linear::Linear;
pub use lstm::{IdentityTransform, LstmCell, LstmLayer, LstmStep, StateTransform};
pub use optim::{Adam, GradClip, Optimizer, Sgd};
pub use params::{ParamVisitor, Parameterized};
