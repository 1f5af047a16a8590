//! 8-bit quantized LSTM inference — the golden functional model for the
//! accelerator datapath.
//!
//! The paper evaluates everything "using an 8-bit quantization for all
//! weights and input/hidden vectors" (Section II-B) and the accelerator
//! moves 8-bit values over LPDDR4. This module defines the exact
//! arithmetic the simulated hardware performs, so that
//! `zskip_accel::FunctionalTile` can be verified *bit-for-bit* against it:
//!
//! 1. gate pre-activations accumulate `i8 × i8` products in `i32`
//!    (integer addition is associative, so any PE scheduling order gives
//!    the same sums),
//! 2. the accumulators are rescaled to real values with the weight and
//!    activation scales, plus a full-precision bias,
//! 3. sigmoid/tanh are evaluated with the hardware's 256-entry lookup
//!    tables,
//! 4. the cell state is re-quantized to 8 bits before storage (it lives
//!    in DRAM between timesteps),
//! 5. the new hidden state is threshold-pruned (Eq. 5) and quantized to
//!    8 bits; values that quantize to code 0 are skippable next step.

use crate::prune::StatePruner;
use serde::{Deserialize, Serialize};
use zskip_nn::LstmCell;
use zskip_tensor::lut::{ActivationLut, GateLuts};
use zskip_tensor::{QLstmTail, QMatrix, Quantizer};

/// Output of one quantized step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuantizedStep {
    /// New hidden-state codes (pruned, length `dh`).
    pub h: Vec<i8>,
    /// New cell-state codes (length `dh`).
    pub c: Vec<i8>,
}

/// An 8-bit quantized LSTM cell with pruned-state inference.
///
/// # Example
///
/// ```
/// use zskip_core::QuantizedLstm;
/// use zskip_nn::LstmCell;
/// use zskip_tensor::SeedableStream;
///
/// let mut rng = SeedableStream::new(1);
/// let cell = LstmCell::new(4, 8, &mut rng);
/// let q = QuantizedLstm::from_cell(&cell, 0.1);
/// let x = q.quantize_input(&[0.5, -0.25, 0.0, 1.0]);
/// let step = q.step(&x, &vec![0; 8], &vec![0; 8]);
/// assert_eq!(step.h.len(), 8);
/// ```
#[derive(Clone, Debug, Serialize)]
pub struct QuantizedLstm {
    dx: usize,
    dh: usize,
    wx: QMatrix,
    wh: QMatrix,
    bias: Vec<f32>,
    x_quant: Quantizer,
    h_quant: Quantizer,
    c_quant: Quantizer,
    luts: GateLuts,
    pruner: StatePruner,
    /// Derived, never persisted: `tanh` of every cell code
    /// ([`zskip_tensor::qlstm::tanh_of_code`]) for the batched step.
    #[serde(skip)]
    tanh_of_code: [f32; 256],
    /// Derived, never persisted: the input code of `1.0`, the only
    /// non-zero code a one-hot input holds.
    #[serde(skip)]
    one_hot_code: i32,
}

/// Only the defining fields are persisted; deserialization goes through
/// [`QuantizedLstm::from_parts`], so a hand-edited blob gets the same
/// shape checks a snapshot does and the derived tables are rebuilt.
impl Deserialize for QuantizedLstm {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::DeError> {
        use serde::de::field;
        let pruner: StatePruner = field(v, "pruner")?;
        Self::from_parts(
            field(v, "dx")?,
            field(v, "dh")?,
            field(v, "wx")?,
            field(v, "wh")?,
            field(v, "bias")?,
            field(v, "x_quant")?,
            field(v, "h_quant")?,
            field(v, "c_quant")?,
            field(v, "luts")?,
            pruner.threshold(),
        )
        .map_err(serde::DeError)
    }
}

impl QuantizedLstm {
    /// Quantizes a trained float cell for inference with pruning threshold
    /// `T`.
    ///
    /// Activation quantizers use fixed full-scale ranges: `h ∈ (-1, 1)`
    /// (product of a sigmoid and a tanh) and a conservative `c ∈ (-4, 4)`;
    /// the input quantizer assumes `|x| ≤ 1` (one-hot chars, unit pixels,
    /// bounded embeddings — rescale inputs otherwise).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative or non-finite, or if the cell
    /// is so wide that a recurrent accumulator could overflow `i32`
    /// ([`QMatrix::check_gemm_t_acc`]).
    pub fn from_cell(cell: &LstmCell, threshold: f32) -> Self {
        Self::from_parts(
            cell.input_dim(),
            cell.hidden_dim(),
            QMatrix::from_matrix(cell.wx()),
            QMatrix::from_matrix(cell.wh()),
            cell.bias().to_vec(),
            Quantizer::from_max_abs(1.0),
            Quantizer::from_max_abs(1.0),
            Quantizer::from_max_abs(4.0),
            GateLuts::hardware(),
            threshold,
        )
        .unwrap_or_else(|reason| panic!("cannot quantize cell: {reason}"))
    }

    /// Rebuilds a quantized cell from stored parts (model snapshots),
    /// preserving every stored quantizer step, LUT sample and weight
    /// code bit-exactly — unlike [`from_cell`](Self::from_cell), which
    /// re-derives quantizers and hardware tables. Returns a message
    /// naming the violated shape invariant instead of panicking, so a
    /// corrupted snapshot surfaces as a typed load error. That includes
    /// a `wh` with so many rows that `rows · 127 · 128` leaves `i32`
    /// ([`QMatrix::check_gemm_t_acc`]): the recurrent accumulators
    /// could then wrap.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        dx: usize,
        dh: usize,
        wx: QMatrix,
        wh: QMatrix,
        bias: Vec<f32>,
        x_quant: Quantizer,
        h_quant: Quantizer,
        c_quant: Quantizer,
        luts: GateLuts,
        threshold: f32,
    ) -> Result<Self, String> {
        wh.check_gemm_t_acc()
            .map_err(|reason| format!("wh: {reason}"))?;
        if wx.rows() != dx || wx.cols() != 4 * dh {
            return Err(format!(
                "wx is {}x{}, expected {dx}x{}",
                wx.rows(),
                wx.cols(),
                4 * dh
            ));
        }
        if wh.rows() != dh || wh.cols() != 4 * dh {
            return Err(format!(
                "wh is {}x{}, expected {dh}x{}",
                wh.rows(),
                wh.cols(),
                4 * dh
            ));
        }
        if bias.len() != 4 * dh {
            return Err(format!(
                "bias has {} entries, expected {}",
                bias.len(),
                4 * dh
            ));
        }
        if !(threshold.is_finite() && threshold >= 0.0) {
            return Err(format!(
                "pruning threshold must be finite and non-negative, got {threshold}"
            ));
        }
        Ok(Self {
            dx,
            dh,
            wx,
            wh,
            bias,
            x_quant,
            h_quant,
            c_quant,
            tanh_of_code: zskip_tensor::qlstm::tanh_of_code(luts.tanh(), c_quant),
            one_hot_code: x_quant.quantize(1.0) as i32,
            luts,
            pruner: StatePruner::new(threshold),
        })
    }

    /// Input dimension `dx`.
    pub fn input_dim(&self) -> usize {
        self.dx
    }

    /// Hidden dimension `dh`.
    pub fn hidden_dim(&self) -> usize {
        self.dh
    }

    /// Pruning threshold `T`.
    pub fn threshold(&self) -> f32 {
        self.pruner.threshold()
    }

    /// The quantized recurrent weights (`dh × 4dh`).
    pub fn wh(&self) -> &QMatrix {
        &self.wh
    }

    /// The quantized input weights (`dx × 4dh`).
    pub fn wx(&self) -> &QMatrix {
        &self.wx
    }

    /// The full-precision bias (`4·dh`, gate order `[f, i, o, g]`).
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// The hardware sigmoid table (gates `f`, `i`, `o`).
    pub fn sigmoid_lut(&self) -> &ActivationLut {
        self.luts.sigmoid()
    }

    /// The hardware tanh table (gate `g` and the cell non-linearity).
    pub fn tanh_lut(&self) -> &ActivationLut {
        self.luts.tanh()
    }

    /// The input quantizer.
    pub fn x_quantizer(&self) -> Quantizer {
        self.x_quant
    }

    /// The hidden-state quantizer.
    pub fn h_quantizer(&self) -> Quantizer {
        self.h_quant
    }

    /// The cell-state quantizer.
    pub fn c_quantizer(&self) -> Quantizer {
        self.c_quant
    }

    /// Quantizes a real-valued input vector to input codes.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_dim()`.
    pub fn quantize_input(&self, x: &[f32]) -> Vec<i8> {
        assert_eq!(x.len(), self.dx, "input length mismatch");
        self.x_quant.quantize_slice(x)
    }

    /// Combined scale of an `x`-side accumulator LSB.
    #[inline]
    pub fn x_acc_scale(&self) -> f32 {
        self.wx.quantizer().step() * self.x_quant.step()
    }

    /// Combined scale of an `h`-side accumulator LSB.
    #[inline]
    pub fn h_acc_scale(&self) -> f32 {
        self.wh.quantizer().step() * self.h_quant.step()
    }

    /// Computes the raw `i32` gate accumulators for one step — exposed so
    /// the accelerator's functional simulation can be compared at the
    /// narrowest possible interface.
    ///
    /// Returns `(acc_x, acc_h)`, each of length `4·dh`.
    pub fn gate_accumulators(&self, x_codes: &[i8], h_codes: &[i8]) -> (Vec<i32>, Vec<i32>) {
        assert_eq!(x_codes.len(), self.dx, "x codes length mismatch");
        assert_eq!(h_codes.len(), self.dh, "h codes length mismatch");
        (self.wx.gemv_t_i32(x_codes), self.wh.gemv_t_i32(h_codes))
    }

    /// Gate pre-activation for flat gate index `k` (`0 ≤ k < 4·dh`, gate
    /// order `[f, i, o, g]` blocked by `dh`): rescales the two integer
    /// accumulators and adds the full-precision bias.
    #[inline]
    pub fn preactivation(&self, k: usize, acc_x: i32, acc_h: i32) -> f32 {
        acc_x as f32 * self.x_acc_scale() + acc_h as f32 * self.h_acc_scale() + self.bias[k]
    }

    /// Applies the hardware non-linearity for `gate` (0..=2 sigmoid, 3
    /// tanh) via the lookup tables.
    ///
    /// # Panics
    ///
    /// Panics if `gate > 3`.
    #[inline]
    pub fn activation(&self, gate: usize, z: f32) -> f32 {
        self.luts.eval_gate(gate, z)
    }

    /// The per-element pointwise tail of one step: Eq. 2 (`c = f·c + i·g`
    /// with 8-bit cell storage), Eq. 3 (`h = o·tanh(c)` on the *stored*
    /// cell value), threshold pruning (Eq. 5) and 8-bit state
    /// quantization. Shared verbatim by the accelerator's functional
    /// tiles so that simulator and reference agree bit-for-bit.
    #[inline]
    pub fn pointwise(&self, f: f32, i: f32, o: f32, g: f32, c_prev_code: i8) -> (i8, i8) {
        let c_prev = self.c_quant.dequantize(c_prev_code);
        let c_val = f * c_prev + i * g;
        let c_code = self.c_quant.quantize(c_val);
        // Hardware computes tanh on the value it stores.
        let tc = self.luts.tanh().eval(self.c_quant.dequantize(c_code));
        let mut h_val = o * tc;
        if h_val.abs() < self.pruner.threshold() {
            h_val = 0.0;
        }
        (self.h_quant.quantize(h_val), c_code)
    }

    /// The x-side gate accumulators of a one-hot input with token `tok`
    /// set, written to `out` (`4·dh`) as exactly-integral `f32` values —
    /// the encoding [`Self::step_lanes`] consumes. Only row `tok` of `Wx`
    /// contributes, scaled by the code of `1.0`: bit-identical to
    /// `wx.gemv_t_i32(quantize_input(one_hot))`, which walks the same
    /// single non-zero row (the paper's "implemented as a look-up
    /// table", integer edition). Each value is one `i8 × i8` product,
    /// `|acc| ≤ 127²`, so `f32` holds it exactly.
    ///
    /// # Panics
    ///
    /// Panics if `tok >= self.input_dim()` or `out.len() != 4·dh`.
    pub fn one_hot_accumulators_into(&self, tok: usize, out: &mut [f32]) {
        let row = self.wx.row(tok);
        assert_eq!(out.len(), row.len(), "gate row length mismatch");
        for (dst, w) in out.iter_mut().zip(row) {
            *dst = (*w as i32 * self.one_hot_code) as f32;
        }
    }

    /// The batched post-GEMM kernel over this cell's parameters —
    /// exposed so dispatch-pinning tests and benches can run its
    /// portable and AVX2 bodies side by side.
    pub fn tail(&self) -> QLstmTail<'_> {
        QLstmTail {
            x_scale: self.x_acc_scale(),
            h_scale: self.h_acc_scale(),
            bias: &self.bias,
            sigmoid: self.luts.sigmoid(),
            tanh: self.luts.tanh(),
            tanh_of_code: &self.tanh_of_code,
            c_quant: self.c_quant,
            h_quant: self.h_quant,
            threshold: self.pruner.threshold(),
        }
    }

    /// One batched step from ready accumulators, over `B` lanes stacked
    /// row-major: `zx` (`B × 4dh`, x-side accumulators as integral `f32`,
    /// see [`Self::one_hot_accumulators_into`]) and `acc_h` (`B × 4dh`,
    /// e.g. from `wh().gemm_t_i32_sparse_rows_into`) go through
    /// [`preactivation`](Self::preactivation) →
    /// [`activation`](Self::activation) → [`pointwise`](Self::pointwise)
    /// against `c_prev` (`B × dh`), writing the pruned hidden codes to
    /// `h_out` and the cell codes to `c_out`. Each lane is bit-identical
    /// to [`Self::step`] on that lane's codes; the work runs in
    /// [`QLstmTail::step`], vectorised where the CPU allows.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn step_lanes(
        &self,
        zx: &[f32],
        acc_h: &[i32],
        c_prev: &[i8],
        h_out: &mut [i8],
        c_out: &mut [i8],
    ) {
        self.tail().step(zx, acc_h, c_prev, h_out, c_out);
    }

    /// One quantized inference step.
    ///
    /// `h_codes`/`c_codes` are the stored 8-bit states from the previous
    /// step (all zeros for the initial state).
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn step(&self, x_codes: &[i8], h_codes: &[i8], c_codes: &[i8]) -> QuantizedStep {
        assert_eq!(c_codes.len(), self.dh, "c codes length mismatch");
        let (acc_x, acc_h) = self.gate_accumulators(x_codes, h_codes);
        let dh = self.dh;

        let mut h_new = vec![0i8; dh];
        let mut c_new = vec![0i8; dh];
        for j in 0..dh {
            let z = |gate: usize| -> f32 {
                let k = gate * dh + j;
                self.preactivation(k, acc_x[k], acc_h[k])
            };
            let f = self.activation(0, z(0));
            let i = self.activation(1, z(1));
            let o = self.activation(2, z(2));
            let g = self.activation(3, z(3));
            let (h_code, c_code) = self.pointwise(f, i, o, g, c_codes[j]);
            h_new[j] = h_code;
            c_new[j] = c_code;
        }
        QuantizedStep { h: h_new, c: c_new }
    }

    /// Runs a whole sequence from zero state; returns the per-step hidden
    /// codes (the trace the accelerator consumes).
    pub fn run_sequence(&self, inputs: &[Vec<i8>]) -> Vec<QuantizedStep> {
        let mut h = vec![0i8; self.dh];
        let mut c = vec![0i8; self.dh];
        let mut out = Vec::with_capacity(inputs.len());
        for x in inputs {
            let step = self.step(x, &h, &c);
            h = step.h.clone();
            c = step.c.clone();
            out.push(step);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zskip_nn::{LstmCell, StateTransform};
    use zskip_tensor::{Matrix, SeedableStream};

    fn cell(seed: u64, dx: usize, dh: usize) -> LstmCell {
        let mut rng = SeedableStream::new(seed);
        LstmCell::new(dx, dh, &mut rng)
    }

    #[test]
    fn quantized_step_tracks_float_model() {
        let cell = cell(1, 6, 12);
        let q = QuantizedLstm::from_cell(&cell, 0.0);
        let x: Vec<f32> = (0..6).map(|i| ((i as f32) * 0.37).sin() * 0.8).collect();
        let xq = q.quantize_input(&x);

        // Float reference.
        let xm = Matrix::from_rows(&[&x]);
        let h0 = Matrix::zeros(1, 12);
        let c0 = Matrix::zeros(1, 12);
        let step_f = cell.forward(&xm, &h0, &c0);

        let step_q = q.step(&xq, &[0; 12], &[0; 12]);
        for j in 0..12 {
            let h_approx = q.h_quantizer().dequantize(step_q.h[j]);
            let h_exact = step_f.h()[(0, j)];
            assert!(
                (h_approx - h_exact).abs() < 0.08,
                "j={j}: {h_approx} vs {h_exact}"
            );
        }
    }

    #[test]
    fn pruning_threshold_zeroes_small_codes() {
        let cell = cell(2, 4, 16);
        let dense = QuantizedLstm::from_cell(&cell, 0.0);
        let pruned = QuantizedLstm::from_cell(&cell, 0.25);
        let x = dense.quantize_input(&[0.3, -0.9, 0.5, 0.1]);
        let d = dense.step(&x, &[0; 16], &[0; 16]);
        let p = pruned.step(&x, &[0; 16], &[0; 16]);
        let zeros_d = d.h.iter().filter(|v| **v == 0).count();
        let zeros_p = p.h.iter().filter(|v| **v == 0).count();
        assert!(zeros_p >= zeros_d);
        // Surviving values agree exactly.
        for j in 0..16 {
            if p.h[j] != 0 {
                assert_eq!(p.h[j], d.h[j]);
            }
        }
    }

    #[test]
    fn sequence_runs_are_deterministic() {
        let cell = cell(3, 3, 8);
        let q = QuantizedLstm::from_cell(&cell, 0.1);
        let inputs: Vec<Vec<i8>> = (0..5)
            .map(|t| q.quantize_input(&[(t as f32 * 0.3).sin(), 0.5, -0.2]))
            .collect();
        let a = q.run_sequence(&inputs);
        let b = q.run_sequence(&inputs);
        assert_eq!(a.last().unwrap().h, b.last().unwrap().h);
    }

    #[test]
    fn from_parts_rejects_a_wh_whose_accumulators_could_wrap() {
        // `rows × 0` costs no codes, so the shape alone is on trial.
        let rows = i32::MAX as usize / (127 * 128) + 1;
        let step = Quantizer::from_max_abs(1.0);
        let wide = |rows| QMatrix::from_parts(rows, 0, Vec::new(), step).unwrap();
        let build = |wh| {
            let wx = QMatrix::from_parts(1, 0, Vec::new(), step).unwrap();
            QuantizedLstm::from_parts(
                1,
                0,
                wx,
                wh,
                Vec::new(),
                step,
                step,
                step,
                GateLuts::hardware(),
                0.0,
            )
        };
        let reason = build(wide(rows)).unwrap_err();
        assert!(reason.starts_with("wh: ") && reason.contains("i32 accumulator"));
        // One row fewer passes the bound and fails on the shape instead.
        assert!(build(wide(rows - 1)).unwrap_err().starts_with("wh is "));
    }

    #[test]
    fn batched_step_matches_sequential_steps_lane_by_lane() {
        let cell = cell(6, 5, 19);
        let q = QuantizedLstm::from_cell(&cell, 0.1);
        let (lanes, dh) = (3usize, 19usize);
        let h: Vec<i8> = (0..lanes * dh)
            .map(|u| (u * 11 % 7) as i8 * 9 - 27)
            .collect();
        let c: Vec<i8> = (0..lanes * dh).map(|u| (u * 29) as i8).collect();
        let toks = [4usize, 0, 2];
        let mut zx = vec![0.0f32; lanes * 4 * dh];
        for (row, &tok) in zx.chunks_mut(4 * dh).zip(&toks) {
            q.one_hot_accumulators_into(tok, row);
        }
        let acc_h = q.wh().gemm_t_i32(&h, lanes);
        let (mut h_out, mut c_out) = (vec![0i8; lanes * dh], vec![0i8; lanes * dh]);
        q.step_lanes(&zx, &acc_h, &c, &mut h_out, &mut c_out);
        for (lane, &tok) in toks.iter().enumerate() {
            let mut one_hot = vec![0.0f32; 5];
            one_hot[tok] = 1.0;
            let rows = lane * dh..(lane + 1) * dh;
            let want = q.step(
                &q.quantize_input(&one_hot),
                &h[rows.clone()],
                &c[rows.clone()],
            );
            assert_eq!(
                &h_out[rows.clone()],
                &want.h[..],
                "lane {lane} hidden codes"
            );
            assert_eq!(&c_out[rows], &want.c[..], "lane {lane} cell codes");
        }
    }

    #[test]
    fn serde_round_trip_rebuilds_the_derived_tables() {
        let q = QuantizedLstm::from_cell(&cell(7, 3, 6), 0.2);
        let back = QuantizedLstm::from_value(&q.to_value()).expect("round trip");
        assert_eq!(back.to_value(), q.to_value());
        assert_eq!(back.tanh_of_code, q.tanh_of_code);
        assert_eq!(back.one_hot_code, q.one_hot_code);
        assert_eq!(back.one_hot_code, 127);
    }

    #[test]
    fn accumulators_skip_invariance() {
        // Zero h codes contribute nothing: dropping them gives identical
        // accumulators — the algebraic fact the whole accelerator relies on.
        let cell = cell(4, 3, 10);
        let q = QuantizedLstm::from_cell(&cell, 0.0);
        let x = q.quantize_input(&[0.1, 0.2, 0.3]);
        let mut h = vec![0i8; 10];
        h[2] = 50;
        h[7] = -80;
        let (_, acc_full) = q.gate_accumulators(&x, &h);
        // Manual sparse accumulation over non-zero positions only.
        let mut acc_sparse = vec![0i32; 40];
        for &j in &[2usize, 7] {
            for (k, acc) in acc_sparse.iter_mut().enumerate() {
                *acc += q.wh().get(j, k) as i32 * h[j] as i32;
            }
        }
        assert_eq!(acc_full, acc_sparse);
    }

    #[test]
    fn quantized_sparsity_at_least_float_sparsity() {
        // Quantization can only add zeros (small values round to code 0).
        let cell = cell(5, 4, 32);
        let threshold = 0.15;
        let q = QuantizedLstm::from_cell(&cell, threshold);
        let pruner = StatePruner::new(threshold);
        let mut h_f = Matrix::zeros(1, 32);
        let mut c_f = Matrix::zeros(1, 32);
        let mut h_q = vec![0i8; 32];
        let mut c_q = vec![0i8; 32];
        let mut float_zeros = 0usize;
        let mut quant_zeros = 0usize;
        for t in 0..10 {
            let x: Vec<f32> = (0..4).map(|i| ((t * 4 + i) as f32 * 0.29).sin()).collect();
            let xm = Matrix::from_rows(&[&x]);
            let step = cell.forward(&xm, &h_f, &c_f);
            h_f = pruner.apply(step.h());
            c_f = step.c().clone();
            let sq = q.step(&q.quantize_input(&x), &h_q, &c_q);
            h_q = sq.h.clone();
            c_q = sq.c.clone();
            float_zeros += h_f.row(0).iter().filter(|v| **v == 0.0).count();
            quant_zeros += h_q.iter().filter(|v| **v == 0).count();
        }
        assert!(quant_zeros >= float_zeros);
    }
}
