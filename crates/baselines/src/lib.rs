//! Analytic models of the weight-sparse LSTM accelerators the paper
//! compares against (Section IV, Fig. 10).
//!
//! * [`EseModel`] — ESE (Han et al., FPGA'17): 32 channels of PEs on a
//!   Xilinx XCKU060 at 200 MHz exploiting *weight* sparsity; published
//!   figures: 282 GOPS on the sparse model ≙ 2.52 TOPS dense-equivalent,
//!   41 W, 61.5 GOPS/W dense-equivalent efficiency, 4.2× sparse-over-dense
//!   speedup.
//! * [`CbsrModel`] — CBSR (Park et al., DATE'18): a load-balancing sparse
//!   weight format on an ESE-like engine. The DATE'19 paper itself
//!   estimates CBSR as ESE scaled by the published 25–30% improvement;
//!   so does this model.
//! * [`Fig10Comparison`] — the headline comparison, in both the paper's
//!   as-printed form and a units-consistent form (see EXPERIMENTS.md for
//!   the discrepancy discussion).

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};
use zskip_accel::SimReport;

/// Analytic model of the ESE accelerator.
///
/// # Example
///
/// ```
/// use zskip_baselines::EseModel;
///
/// let ese = EseModel::published();
/// assert!((ese.effective_tops() - 2.52).abs() < 0.05);
/// assert!((ese.dense_equivalent_gops_per_watt() - 61.5).abs() < 1.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EseModel {
    /// Parallel channels.
    pub channels: usize,
    /// PEs per channel.
    pub pes_per_channel: usize,
    /// Clock frequency in Hz.
    pub clock_hz: f64,
    /// Density of the pruned weight matrices (≈11.2% for ESE's LSTM).
    pub weight_density: f64,
    /// Sustained utilization on sparse work (load imbalance between rows
    /// of the compressed matrix keeps it below 1).
    pub sparse_utilization: f64,
    /// Board power in watts.
    pub power_watts: f64,
}

impl EseModel {
    /// The published FPGA'17 configuration.
    pub fn published() -> Self {
        Self {
            channels: 32,
            pes_per_channel: 32,
            clock_hz: 200e6,
            weight_density: 0.112,
            sparse_utilization: 0.688,
            power_watts: 41.0,
        }
    }

    /// Physical MAC throughput in GOPS (one MAC = two operations).
    pub fn physical_peak_gops(&self) -> f64 {
        (self.channels * self.pes_per_channel) as f64 * 2.0 * self.clock_hz / 1e9
    }

    /// Sustained GOPS on the sparse model.
    pub fn sparse_gops(&self) -> f64 {
        self.physical_peak_gops() * self.sparse_utilization
    }

    /// Dense-equivalent effective throughput in TOPS: sparse throughput
    /// divided by weight density (skipped weight work counts, matching
    /// how ESE reports 2.52 TOPS).
    pub fn effective_tops(&self) -> f64 {
        self.sparse_gops() / self.weight_density / 1e3
    }

    /// Dense-equivalent energy efficiency in GOPS/W (ESE: 61.5).
    pub fn dense_equivalent_gops_per_watt(&self) -> f64 {
        self.effective_tops() * 1e3 / self.power_watts
    }

    /// Analytic upper bound on the sparse-over-dense speedup: processing
    /// only the non-zero weights at the sustained sparse utilization,
    /// against a fully-utilized dense pass. ESE *measured* 4.2× (memory
    /// effects its analytic model does not capture) — see
    /// [`Self::MEASURED_SPARSE_SPEEDUP`].
    pub fn analytic_speedup_bound(&self) -> f64 {
        self.sparse_utilization / self.weight_density
    }

    /// The sparse-over-dense speedup ESE reports on hardware, quoted by
    /// the DATE'19 paper ("4.2× faster than the model with dense
    /// weights").
    pub const MEASURED_SPARSE_SPEEDUP: f64 = 4.2;
}

/// CBSR estimated from ESE by the published improvement factor, exactly
/// as the DATE'19 paper does ("we have used the improvement factor of
/// CBSR over ESE to estimate the performance of CBSR").
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CbsrModel {
    /// The underlying ESE-like engine.
    pub base: EseModel,
    /// Performance improvement from the load-balanced format (1.25–1.30).
    pub improvement: f64,
}

impl CbsrModel {
    /// The paper's estimate: ESE × 1.30.
    pub fn published() -> Self {
        Self {
            base: EseModel::published(),
            improvement: 1.30,
        }
    }

    /// Dense-equivalent effective throughput in TOPS.
    pub fn effective_tops(&self) -> f64 {
        self.base.effective_tops() * self.improvement
    }
}

/// The Fig. 10 comparison in both interpretations.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Fig10Comparison {
    /// Bar printed for "This work" in the paper: 4.8. The paper's text
    /// calls the same 4.8 its *peak energy efficiency in TOPS/W*, so the
    /// as-printed bar is our peak TOPS/W figure.
    pub this_work_as_printed: f64,
    /// ESE bar (effective TOPS).
    pub ese_tops: f64,
    /// CBSR bar (effective TOPS).
    pub cbsr_tops: f64,
    /// Units-consistent alternative: our peak *effective* throughput in
    /// TOPS (sparse, best batch).
    pub this_work_effective_tops: f64,
    /// Units-consistent efficiency comparison: ours vs ESE in GOPS/W.
    pub this_work_gops_per_watt: f64,
    /// ESE dense-equivalent GOPS/W.
    pub ese_gops_per_watt: f64,
}

impl Fig10Comparison {
    /// Builds the comparison from this work's best sparse run.
    pub fn from_report(best_sparse: &SimReport) -> Self {
        let ese = EseModel::published();
        let cbsr = CbsrModel::published();
        Self {
            this_work_as_printed: best_sparse.gops_per_watt / 1e3,
            ese_tops: ese.effective_tops(),
            cbsr_tops: cbsr.effective_tops(),
            this_work_effective_tops: best_sparse.effective_gops / 1e3,
            this_work_gops_per_watt: best_sparse.gops_per_watt,
            ese_gops_per_watt: ese.dense_equivalent_gops_per_watt(),
        }
    }

    /// The paper's headline ratio over ESE (1.9× for the printed bars).
    pub fn ratio_over_ese(&self) -> f64 {
        self.this_work_as_printed / self.ese_tops
    }

    /// The paper's headline ratio over CBSR (1.5×).
    pub fn ratio_over_cbsr(&self) -> f64 {
        self.this_work_as_printed / self.cbsr_tops
    }

    /// Efficiency advantage over ESE in consistent units.
    pub fn efficiency_ratio_over_ese(&self) -> f64 {
        self.this_work_gops_per_watt / self.ese_gops_per_watt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zskip_accel::{LstmWorkload, Simulator, SkipTrace, SparsityProfile};

    #[test]
    fn ese_reproduces_published_numbers() {
        let ese = EseModel::published();
        // 32×32 PEs × 2 × 200 MHz = 409.6 GOPS physical.
        assert!((ese.physical_peak_gops() - 409.6).abs() < 0.1);
        // 282 GOPS sparse sustained.
        assert!((ese.sparse_gops() - 282.0).abs() < 2.0);
        // 2.52 TOPS dense-equivalent.
        assert!((ese.effective_tops() - 2.52).abs() < 0.05);
        // 61.5 GOPS/W.
        assert!((ese.dense_equivalent_gops_per_watt() - 61.5).abs() < 1.0);
    }

    #[test]
    fn ese_speedup_bound_exceeds_measured() {
        let ese = EseModel::published();
        // Analytic bound (no memory stalls) must bracket the measured
        // 4.2× from above but stay in its order of magnitude.
        let bound = ese.analytic_speedup_bound();
        assert!(bound >= EseModel::MEASURED_SPARSE_SPEEDUP, "bound {bound}");
        assert!(bound < 10.0, "bound {bound}");
    }

    #[test]
    fn cbsr_is_25_to_30_percent_better() {
        let cbsr = CbsrModel::published();
        let ratio = cbsr.effective_tops() / cbsr.base.effective_tops();
        assert!((1.25..=1.30).contains(&ratio));
        assert!((cbsr.effective_tops() - 3.3).abs() < 0.1);
    }

    fn best_sparse_report() -> SimReport {
        let sim = Simulator::paper();
        let w = LstmWorkload::ptb_char(8);
        let trace = SkipTrace::from_profile(
            w.dh,
            w.seq_len,
            w.batch,
            SparsityProfile::new(0.81, 0.0),
            42,
        );
        sim.run(&w, &trace)
    }

    #[test]
    fn fig10_printed_bars_match_paper() {
        let cmp = Fig10Comparison::from_report(&best_sparse_report());
        // Paper: this work 4.8, ESE 2.5, CBSR 3.3; ratios 1.9× and 1.5×.
        assert!(
            (cmp.this_work_as_printed - 4.8).abs() < 0.5,
            "this-work bar {}",
            cmp.this_work_as_printed
        );
        assert!((cmp.ese_tops - 2.5).abs() < 0.1);
        assert!((cmp.cbsr_tops - 3.3).abs() < 0.1);
        assert!((cmp.ratio_over_ese() - 1.9).abs() < 0.3);
        assert!((cmp.ratio_over_cbsr() - 1.5).abs() < 0.25);
    }

    #[test]
    fn consistent_units_show_efficiency_win_not_throughput_win() {
        let cmp = Fig10Comparison::from_report(&best_sparse_report());
        // A 1.1 mm² edge accelerator cannot out-run a 41 W FPGA board in
        // absolute TOPS...
        assert!(cmp.this_work_effective_tops < cmp.ese_tops);
        // ...but it wins energy efficiency by well over an order of
        // magnitude.
        assert!(cmp.efficiency_ratio_over_ese() > 50.0);
    }
}
