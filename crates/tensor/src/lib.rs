//! Dense and quantized linear-algebra substrate for the `zskip` workspace.
//!
//! This crate provides the numeric foundation used by every other `zskip`
//! crate:
//!
//! * [`Matrix`] — a row-major `f32` matrix with the small set of operations
//!   an LSTM training loop needs (GEMM, GEMV, transpose, element-wise maps),
//! * [`quant`] — symmetric linear 8-bit quantization of weights and
//!   activations, matching the paper's "8-bit quantization for all weights
//!   and input/hidden vectors" (Section II-B),
//! * [`qlstm`] — the quantized LSTM's post-GEMM datapath (rescale, LUT
//!   gates, cell update, prune, requantise) as one batched kernel,
//! * [`fixed`] — parameterized fixed-point formats used to model the
//!   accelerator's 12-bit scratch partial sums (Section III-B),
//! * [`lut`] — table-based sigmoid/tanh like the hardware tiles use, plus
//!   `f32` reference implementations,
//! * [`rng`] — deterministic seeded randomness so every experiment in the
//!   reproduction is replayable bit-for-bit,
//! * [`simd`] — the runtime dispatch policy shared by the f32 and integer
//!   kernel families (AVX2 twins pinned bit-equal to portable bodies;
//!   `ZSKIP_FORCE_PORTABLE` vetoes the twins for testing),
//! * [`snapshot`] — the checksummed binary container frozen-model
//!   snapshots are written into (named tensor sections, CRC-32 per
//!   payload, typed rejection of corrupt or truncated files).
//!
//! # Example
//!
//! ```
//! use zskip_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let x = [1.0, 1.0];
//! let y = a.gemv(&x);
//! assert_eq!(y, vec![3.0, 7.0]);
//! ```

pub mod fixed;
pub mod lut;
pub mod matrix;
pub mod qlstm;
pub mod quant;
pub mod rng;
pub mod simd;
pub mod snapshot;
pub mod stats;

pub use fixed::{FixedPoint, QFormat};
pub use lut::{sigmoid, tanh, ActivationLut, GateActivations, GateLuts};
pub use matrix::Matrix;
pub use qlstm::QLstmTail;
pub use quant::{QMatrix, QVector, Quantizer};
pub use rng::SeedableStream;
pub use snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
