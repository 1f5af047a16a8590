//! Cycle-level simulator of the zero-state-skipping LSTM accelerator
//! (Section III of the DATE 2019 paper).
//!
//! Three complementary models, cross-validated by the test suite:
//!
//! * **Timing/traffic** — [`DataflowModel`](dataflow::DataflowModel)
//!   charges each *stored* state column its bandwidth/compute/input cost
//!   and skips all-lane-zero columns outright; validated against the
//!   cycle-stepped pipeline of [`GemvPipelineSim`](cycle::GemvPipelineSim)
//!   (Fig. 5's dataflow at single-cycle granularity).
//! * **Energy/area** — [`energy::EnergyModel`] and
//!   [`area::AreaModel`], calibrated to the paper's reported
//!   operating points (1.1 mm², 76.8 GOPS peak, 925.3 GOPS/W dense).
//! * **Functional** — [`FunctionalAccelerator`], a tile-by-tile 8-bit
//!   datapath that is bit-identical to the
//!   [`QuantizedLstm`](zskip_core::QuantizedLstm) reference (integer
//!   accumulation is order-independent, so offset-addressed sparse
//!   evaluation cannot change results).
//!
//! # Example
//!
//! ```
//! use zskip_accel::{LstmWorkload, Simulator, SkipTrace, SparsityProfile};
//!
//! let sim = Simulator::paper();
//! let w = LstmWorkload::ptb_char(8);
//! let dense = sim.run_dense(&w);
//! let trace = SkipTrace::from_profile(
//!     w.dh, w.seq_len, w.batch, SparsityProfile::new(0.81, 0.0), 42);
//! let sparse = sim.run(&w, &trace);
//! assert!(sparse.speedup_over(&dense) > 4.0);
//! ```

#![forbid(unsafe_code)]

pub mod arch;
pub mod area;
pub mod cycle;
pub mod dataflow;
pub mod energy;
pub mod executor;
pub mod functional;
pub mod sim;
pub mod trace;
pub mod workload;

pub use arch::ArchConfig;
pub use area::AreaModel;
pub use energy::EnergyModel;
pub use executor::{ExecutionResult, HardwareExecutor};
pub use functional::{FunctionalAccelerator, LaneState, ScratchPrecision};
pub use sim::{SimReport, Simulator};
pub use trace::{SkipTrace, SparsityProfile};
pub use workload::{InputKind, LstmWorkload};
