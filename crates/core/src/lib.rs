//! The paper's contribution: learning to skip ineffectual recurrent
//! computations by pruning the LSTM hidden state.
//!
//! This crate implements Section II of *Ardakani, Ji, Gross, "Learning to
//! Skip Ineffectual Recurrent Computations in LSTMs" (DATE 2019)*:
//!
//! * [`StatePruner`] — the threshold pruning of Eq. 5 with the
//!   straight-through gradient of Eq. 6, plugged into `zskip-nn`'s
//!   [`StateTransform`](zskip_nn::StateTransform) hook (Fig. 1),
//! * [`sparsity`] — sparsity-degree measurement, including the
//!   *batch-joint* sparsity of Section III-D (a column is skippable only
//!   when every batch lane is zero, Fig. 5d → Fig. 7),
//! * [`encode`] — the output-side zero-run offset encoder of Section III-B
//!   ("the encoder counts up if the current input value of all the batches
//!   is zero"), which lets the next timestep fetch only the weights of
//!   non-zero columns with no decoder,
//! * [`sweep`] — threshold sweeps and the "sweet spot" search used for
//!   Figs. 2–4,
//! * [`train`] — ready-made training harnesses for the paper's three
//!   tasks, at configurable scale,
//! * [`quantized`] — the 8-bit inference reference model that the
//!   accelerator's functional simulation must match bit-for-bit.
//!
//! # Example
//!
//! ```
//! use zskip_core::StatePruner;
//! use zskip_nn::StateTransform;
//! use zskip_tensor::Matrix;
//!
//! let pruner = StatePruner::new(0.5);
//! let h = Matrix::from_rows(&[&[0.2, -0.7, 0.4, 0.9]]);
//! let hp = pruner.apply(&h);
//! assert_eq!(hp.row(0), &[0.0, -0.7, 0.0, 0.9]);
//! ```

// Every intrinsic and raw-pointer access lives in `zskip-tensor`.
#![forbid(unsafe_code)]

pub mod encode;
pub mod prune;
pub mod quantized;
pub mod sparsity;
pub mod sweep;
pub mod train;

pub use encode::{EncodedColumn, EncodedState, OffsetEncoder};
pub use prune::{MaskedGradientPruner, StatePruner};
pub use quantized::QuantizedLstm;
pub use sweep::{sweet_spot, SparsityPoint};
