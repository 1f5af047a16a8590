//! Frozen 8-bit quantized character-level LM: the integer serving path.
//!
//! This family serves the arithmetic the simulated accelerator performs —
//! `i8 × i8 → i32` gate accumulators, LUT non-linearities, 8-bit state
//! storage — instead of the float path the other families take. It
//! *embeds* [`zskip_core::QuantizedLstm`], the golden functional model the
//! accelerator's `FunctionalTile` is verified bit-for-bit against, and
//! runs its `preactivation` / `activation` / `pointwise` stages through
//! the cell's own batched form ([`QuantizedLstm::step_lanes`]); the only
//! thing this module adds is the **batched, skip-aware accumulator**:
//! `QMatrix::gemm_t_i32_sparse_rows` under the engine's
//! [`SkipPlan`](crate::SkipPlan), which is bit-free because integer
//! addition is associative and a code-0 unit contributes exact zeros.
//!
//! Sessions therefore carry `i8` codes between steps
//! ([`FrozenModel::State`]` = i8`), exactly as hidden and cell states live
//! in 8-bit DRAM between timesteps on the hardware — a served stream's
//! state traffic is one quarter of the float families'.

use crate::model::{FrozenModel, HeadScratch, StateLanes, StepScratch, TokenDomain};
use serde::{Deserialize, Serialize};
use zskip_core::{QuantizedLstm, StatePruner};
use zskip_nn::models::CharLm;
use zskip_nn::LstmCell;
use zskip_telemetry::Stage;
use zskip_tensor::{QMatrix, SeedableStream};

/// Frozen weights of the quantized char-LM: the golden
/// [`QuantizedLstm`] cell plus an 8-bit quantized softmax head.
///
/// The pruning threshold is **baked into the frozen model** (it is part
/// of the quantized pointwise datapath, applied to the real value before
/// re-quantization); configure the engine with the same threshold — the
/// step asserts they agree, because a mismatch would silently serve a
/// different model than the one frozen.
///
/// # Example
///
/// ```
/// use zskip_nn::models::CharLm;
/// use zskip_runtime::{FrozenModel, FrozenQuantizedCharLm};
/// use zskip_tensor::SeedableStream;
///
/// let mut rng = SeedableStream::new(1);
/// let mut model = CharLm::new(20, 16, &mut rng);
/// let frozen = FrozenQuantizedCharLm::freeze(&mut model, 0.2);
/// assert_eq!(frozen.vocab_size(), 20);
/// assert_eq!(frozen.hidden_dim(), 16);
/// assert_eq!(frozen.threshold(), 0.2);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FrozenQuantizedCharLm {
    vocab: usize,
    q: QuantizedLstm,
    head_w: QMatrix,
    head_b: Vec<f32>,
}

impl FrozenQuantizedCharLm {
    /// Quantizes a trained [`CharLm`] for integer serving at pruning
    /// threshold `threshold`.
    ///
    /// The LSTM cell goes through [`QuantizedLstm::from_cell`] — the
    /// *same* constructor the accelerator-verification tests use, so the
    /// served datapath is byte-identical to the verified reference — and
    /// the head is max-abs quantized the same way the cell weights are.
    ///
    /// (The borrow is mutable only for signature symmetry with the other
    /// families' `freeze`; quantization reads through the model's
    /// accessors, which the `Freezable` export is debug-asserted
    /// byte-identical to.)
    ///
    /// # Panics
    ///
    /// Panics if the model is so wide that an `i32` gate or head
    /// accumulator could overflow ([`QMatrix::check_gemm_t_acc`]).
    pub fn freeze(model: &mut CharLm, threshold: f32) -> Self {
        Self::assemble(
            model.vocab_size(),
            QuantizedLstm::from_cell(model.lstm().cell(), threshold),
            QMatrix::from_matrix(model.head().weight()),
            model.head().bias().to_vec(),
        )
    }

    /// Random weights at serving shape — used by benchmarks and
    /// determinism tests that measure the integer path without paying
    /// for training first.
    pub fn random(vocab: usize, hidden: usize, threshold: f32, seed: u64) -> Self {
        let mut rng = SeedableStream::new(seed);
        let cell = LstmCell::new(vocab, hidden, &mut rng);
        let scale = (1.0 / hidden as f32).sqrt();
        let head_w = super::random_matrix(hidden, vocab, scale, &mut rng);
        Self::assemble(
            vocab,
            QuantizedLstm::from_cell(&cell, threshold),
            QMatrix::from_matrix(&head_w),
            vec![0.0; vocab],
        )
    }

    fn assemble(vocab: usize, q: QuantizedLstm, head_w: QMatrix, head_b: Vec<f32>) -> Self {
        if let Err(reason) = head_w.check_gemm_t_acc() {
            panic!("cannot quantize head: {reason}");
        }
        Self {
            vocab,
            q,
            head_w,
            head_b,
        }
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab
    }

    /// The embedded golden quantized cell.
    pub fn quantized(&self) -> &QuantizedLstm {
        &self.q
    }

    /// The pruning threshold baked into the quantized datapath.
    pub fn threshold(&self) -> f32 {
        self.q.threshold()
    }

    /// Quantized head weights (`dh × vocab`).
    pub fn head_w(&self) -> &QMatrix {
        &self.head_w
    }

    /// Full-precision head bias (`vocab`).
    pub fn head_b(&self) -> &[f32] {
        &self.head_b
    }
}

impl FrozenModel for FrozenQuantizedCharLm {
    type Input = usize;

    /// 8-bit codes: session state lives in `i8`, as on the accelerator's
    /// DRAM.
    type State = i8;

    fn hidden_dim(&self) -> usize {
        self.q.hidden_dim()
    }

    fn output_dim(&self) -> usize {
        self.vocab
    }

    type Spec = TokenDomain;

    fn input_spec(&self) -> TokenDomain {
        TokenDomain { vocab: self.vocab }
    }

    /// Raw x-side `i32` accumulators, carried as `f32` (exactly
    /// representable, so the round-trip through the `Matrix` container
    /// is lossless): the cell's one-hot row lookup,
    /// [`QuantizedLstm::one_hot_accumulators_into`], per lane.
    fn input_encode(&self, inputs: &[usize], scratch: &mut StepScratch<i8>) {
        scratch
            .zx
            .resize_for_overwrite(inputs.len(), 4 * self.q.hidden_dim());
        for (r, &tok) in inputs.iter().enumerate() {
            self.q.one_hot_accumulators_into(tok, scratch.zx.row_mut(r));
        }
    }

    /// One batched quantized step: the skip-aware integer accumulator
    /// feeds the embedded reference's batched post-GEMM stage
    /// ([`QuantizedLstm::step_lanes`]), so each lane is bit-identical to
    /// [`QuantizedLstm::step`] on that lane's codes (proptested in
    /// `tests/proptests.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the engine's pruning threshold disagrees with the one
    /// baked into the frozen model.
    fn recurrent_step(
        &self,
        h: &StateLanes<i8>,
        c: &StateLanes<i8>,
        pruner: &StatePruner,
        scratch: &mut StepScratch<i8>,
    ) {
        assert!(
            pruner.threshold() == self.q.threshold(),
            "engine threshold {} != frozen quantized threshold {}: the quantized family bakes \
             Eq. 5 into its pointwise datapath — configure the engine with the freeze threshold",
            pruner.threshold(),
            self.q.threshold()
        );
        scratch
            .plan
            .gemm_t_i32_into(h, self.q.wh(), &mut scratch.acc);
        scratch.stages.lap(Stage::RecurrentGemm);

        // Every state code is written by the step — no zero-fill needed.
        scratch.h_next.resize_for_overwrite(c.rows(), c.cols());
        scratch.c_next.resize_for_overwrite(c.rows(), c.cols());
        self.q.step_lanes(
            scratch.zx.as_slice(),
            &scratch.acc,
            c.as_slice(),
            scratch.h_next.as_mut_slice(),
            scratch.c_next.as_mut_slice(),
        );
    }

    /// Quantized head: `i8` state codes against the `i8` head weights
    /// with `i32` accumulation (staged in `scratch.acc`), rescaled once
    /// per logit — the same requantization shape as the gate datapath.
    fn head(&self, hp: &StateLanes<i8>, scratch: &mut HeadScratch) {
        let scale = self.head_w.quantizer().step() * self.q.h_quantizer().step();
        self.head_w
            .gemm_t_i32_into(hp.as_slice(), hp.rows(), &mut scratch.acc);
        scratch.logits.resize_for_overwrite(hp.rows(), self.vocab);
        for r in 0..hp.rows() {
            let acc_row = &scratch.acc[r * self.vocab..(r + 1) * self.vocab];
            for ((dst, a), b) in scratch
                .logits
                .row_mut(r)
                .iter_mut()
                .zip(acc_row)
                .zip(&self.head_b)
            {
                *dst = *a as f32 * scale + *b;
            }
        }
    }
}

impl crate::snapshot::ModelSnapshot for FrozenQuantizedCharLm {
    const FAMILY: crate::snapshot::ModelFamily = crate::snapshot::ModelFamily::QuantizedCharLm;

    fn write_sections(&self, w: &mut zskip_tensor::SnapshotWriter) {
        w.u64_scalar("vocab", self.vocab as u64);
        crate::snapshot::write_qmatrix(w, "q.wx", self.q.wx());
        crate::snapshot::write_qmatrix(w, "q.wh", self.q.wh());
        w.f32s("q.bias", &[self.q.bias().len()], self.q.bias());
        crate::snapshot::write_quantizer(w, "q.x_quant.step", self.q.x_quantizer());
        crate::snapshot::write_quantizer(w, "q.h_quant.step", self.q.h_quantizer());
        crate::snapshot::write_quantizer(w, "q.c_quant.step", self.q.c_quantizer());
        let luts =
            zskip_tensor::GateLuts::new(self.q.sigmoid_lut().clone(), self.q.tanh_lut().clone());
        crate::snapshot::write_gate_luts(w, "q.luts", &luts);
        crate::snapshot::write_f32_scalar(w, "q.threshold", self.q.threshold());
        crate::snapshot::write_qmatrix(w, "head.w", &self.head_w);
        w.f32s("head.b", &[self.head_b.len()], &self.head_b);
    }

    fn read_sections(
        r: &mut zskip_tensor::SnapshotReader<'_>,
    ) -> Result<Self, zskip_tensor::SnapshotError> {
        let vocab = r.u64_scalar("vocab")? as usize;
        let wx = crate::snapshot::read_qmatrix(r, "q.wx")?;
        let wh = crate::snapshot::read_qmatrix(r, "q.wh")?;
        let (_, bias) = r.f32s("q.bias")?;
        let x_quant = crate::snapshot::read_quantizer(r, "q.x_quant.step")?;
        let h_quant = crate::snapshot::read_quantizer(r, "q.h_quant.step")?;
        let c_quant = crate::snapshot::read_quantizer(r, "q.c_quant.step")?;
        let luts = crate::snapshot::read_gate_luts(r, "q.luts")?;
        let threshold = crate::snapshot::read_f32_scalar(r, "q.threshold")?;
        let head_w = crate::snapshot::read_qmatrix(r, "head.w")?;
        let (_, head_b) = r.f32s("head.b")?;
        for (tensor, m) in [("q.wh.codes", &wh), ("head.w.codes", &head_w)] {
            m.check_gemm_t_acc()
                .map_err(|reason| zskip_tensor::SnapshotError::Invalid {
                    tensor: tensor.to_string(),
                    reason,
                })?;
        }
        let (dx, dh) = (wx.rows(), wh.rows());
        let q = QuantizedLstm::from_parts(
            dx, dh, wx, wh, bias, x_quant, h_quant, c_quant, luts, threshold,
        )
        .map_err(|reason| zskip_tensor::SnapshotError::Invalid {
            tensor: "q".to_string(),
            reason,
        })?;
        if q.input_dim() != vocab
            || head_w.rows() != q.hidden_dim()
            || head_w.cols() != vocab
            || head_b.len() != vocab
        {
            return Err(zskip_tensor::SnapshotError::Invalid {
                tensor: "head.w.codes".to_string(),
                reason: "quantized lstm/head dimensions disagree with the stored vocab".to_string(),
            });
        }
        Ok(Self {
            vocab,
            q,
            head_w,
            head_b,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeze_embeds_the_reference_cell_exactly() {
        let mut rng = SeedableStream::new(3);
        let mut model = CharLm::new(12, 8, &mut rng);
        let frozen = FrozenQuantizedCharLm::freeze(&mut model, 0.25);
        let reference = QuantizedLstm::from_cell(model.lstm().cell(), 0.25);
        // Same constructor, same cell, same threshold ⇒ the embedded
        // golden model is the verification reference, not a re-derivation.
        assert_eq!(frozen.quantized().wh(), reference.wh());
        assert_eq!(frozen.quantized().wx(), reference.wx());
        assert_eq!(frozen.threshold(), 0.25);
        assert_eq!(frozen.head_w().rows(), 8);
        assert_eq!(frozen.head_w().cols(), 12);
    }

    #[test]
    fn input_encode_is_the_integer_row_lookup() {
        let mut rng = SeedableStream::new(5);
        let mut model = CharLm::new(9, 6, &mut rng);
        let frozen = FrozenQuantizedCharLm::freeze(&mut model, 0.1);
        let q = frozen.quantized().clone();
        for tok in 0..9usize {
            let mut one_hot = vec![0.0f32; 9];
            one_hot[tok] = 1.0;
            let codes = q.quantize_input(&one_hot);
            let reference = q.wx().gemv_t_i32(&codes);
            let mut scratch = StepScratch::new();
            frozen.input_encode(&[tok], &mut scratch);
            for (got, want) in scratch.zx.row(0).iter().zip(&reference) {
                assert_eq!(*got as i32, *want, "tok={tok}");
                assert_eq!(got.fract(), 0.0, "accumulator not integral");
            }
        }
    }

    #[test]
    fn threshold_mismatch_is_rejected_loudly() {
        let frozen = FrozenQuantizedCharLm::random(8, 6, 0.3, 1);
        let h = StateLanes::zeros(1, 6);
        let c = StateLanes::zeros(1, 6);
        let result = std::panic::catch_unwind(|| {
            let mut scratch = StepScratch::new();
            frozen.input_encode(&[2], &mut scratch);
            scratch.plan.use_sparse = true;
            frozen.recurrent_step(&h, &c, &StatePruner::new(0.2), &mut scratch)
        });
        assert!(result.is_err(), "mismatched threshold must panic");
    }

    #[test]
    fn oversized_head_is_a_typed_load_error() {
        use crate::snapshot::ModelSnapshot;
        // A header may claim any shape its payload agrees with, and
        // `rows × 0` needs no payload: one row past the i32 bound.
        let rows = i32::MAX as usize / (127 * 128) + 1;
        let mut model = FrozenQuantizedCharLm::random(4, 2, 0.1, 1);
        model.head_w = QMatrix::from_parts(rows, 0, Vec::new(), model.head_w.quantizer()).unwrap();
        match FrozenQuantizedCharLm::from_snapshot_bytes(&model.to_snapshot_bytes()) {
            Err(zskip_tensor::SnapshotError::Invalid { tensor, reason }) => {
                assert_eq!(tensor, "head.w.codes");
                assert!(reason.contains("i32 accumulator"), "{reason}");
            }
            other => panic!("expected a typed accumulator-bound error, got {other:?}"),
        }
    }

    #[test]
    fn random_weights_have_serving_shape() {
        let f = FrozenQuantizedCharLm::random(50, 64, 0.1, 9);
        assert_eq!(f.vocab_size(), 50);
        assert_eq!(f.hidden_dim(), 64);
        assert_eq!(f.cell_dim(), 64);
        assert_eq!(f.quantized().wh().rows(), 64);
        assert_eq!(f.quantized().wh().cols(), 256);
    }
}
