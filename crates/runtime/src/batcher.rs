//! The batched inference step: coalesces many sessions into one recurrent
//! step and exploits the batch-joint skip pattern.
//!
//! Per step, the batcher:
//!
//! 1. packs the sessions' pruned hidden states into `B × dh` lanes of the
//!    family's state scalar ([`FrozenModel::State`] — `f32` for the float
//!    families, `i8` codes for the quantized family),
//! 2. passes the previous step's zero-run offset encoding
//!    ([`zskip_core::encode`]) to the family's sparse kernel
//!    ([`Matrix::matmul_sparse_rows_from_into`](zskip_tensor::Matrix::matmul_sparse_rows_from_into)
//!    or `QMatrix::gemm_t_i32_sparse_rows_into`), so rows of `Wh` whose
//!    state column is zero in **every** lane are never read (Section
//!    III-D batch-joint skipping),
//! 3. applies the family's recurrent non-linearity **and pruner**
//!    ([`FrozenModel::recurrent_step`] — families disagree on where Eq. 5
//!    lands, so the pruner travels with the step),
//! 4. re-encodes the new pruned state, producing the skip plan for the
//!    *next* step — the same store-offsets-now, skip-weights-next-step
//!    dataflow as the hardware.
//!
//! The batcher is generic over [`FrozenModel`], so the same skip
//! machinery serves the LSTM char-LM, the 3-gate GRU, the embedding-input
//! word-LM, the pixel-streaming classifier and the 8-bit quantized
//! char-LM.
//!
//! Per-lane outputs are **independent of batch composition**: batching
//! only ever widens the active set (a column is skipped when every lane
//! agrees it is zero), and extra active columns contribute exact zeros.
//! That makes interleaving sessions into one batch bit-equivalent to
//! stepping them in isolation — tested in `tests/proptests.rs`.

use crate::model::{FrozenModel, StateLanes, StepScratch};
use crate::weights::FrozenCharLm;
use zskip_core::{OffsetEncoder, StatePruner};
use zskip_telemetry::Stage;

/// Skip-path policy for the batched step.
#[derive(Clone, Copy, Debug)]
pub struct SkipPolicy {
    /// Width of the offset field in the zero-run encoding (hardware: 8).
    /// Saturating runs force stored anchor columns, exactly as on the
    /// accelerator, and anchors are charged as fetched weight rows.
    pub offset_bits: u8,
    /// Use the dense kernel when at least this fraction of the `dh`
    /// columns is active (`active >= dense_fallback · dh`) — around that
    /// point the sparse bookkeeping costs more than it saves. So 0.0
    /// always runs dense, 1.0 runs dense only when every column is
    /// active, and any value above 1.0 never runs dense.
    pub dense_fallback: f64,
}

impl Default for SkipPolicy {
    fn default() -> Self {
        Self {
            offset_bits: 8,
            dense_fallback: 0.9,
        }
    }
}

/// Per-step sparsity accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepStats {
    /// Batch lanes coalesced into this step.
    pub lanes: usize,
    /// Hidden size `dh`.
    pub hidden: usize,
    /// Weight rows fetched (stored columns, anchors included).
    pub fetched_rows: usize,
    /// Anchor columns forced by offset-field saturation.
    pub anchor_columns: usize,
    /// Fraction of `Wh` rows skipped this step.
    pub skip_fraction: f64,
    /// Whether the sparse kernel ran (`false` = dense fallback).
    pub used_sparse_path: bool,
}

/// One step's worth of batched inputs, owned by the engine.
pub struct BatchStep<'a, I, S> {
    /// Pruned hidden states, one lane per row (`B × dh`).
    pub h: &'a StateLanes<S>,
    /// Cell states (`B × cell_dim` — zero-width for the GRU family).
    pub c: &'a StateLanes<S>,
    /// One input unit per lane (token id or pixel).
    pub inputs: &'a [I],
}

/// Stateless batched stepper over frozen weights of any model family.
#[derive(Clone, Debug)]
pub struct DynamicBatcher<M: FrozenModel = FrozenCharLm> {
    model: M,
    pruner: StatePruner,
    encoder: OffsetEncoder,
    policy: SkipPolicy,
}

impl<M: FrozenModel> DynamicBatcher<M> {
    /// Creates a batcher serving `model` with pruning threshold
    /// `threshold` (use the threshold the model was trained — or, for
    /// the quantized family, frozen — with).
    ///
    /// # Panics
    ///
    /// Panics if `model` has a threshold baked into its datapath
    /// ([`FrozenModel::baked_threshold`]) and `threshold` is not that
    /// one. The check runs here, on the constructing thread, so a
    /// misconfigured server fails before any shard worker exists.
    pub fn new(model: M, threshold: f32, policy: SkipPolicy) -> Self {
        if let Some(baked) = model.baked_threshold() {
            assert!(
                threshold == baked,
                "engine threshold {threshold} != frozen quantized threshold {baked}: the \
                 quantized family bakes Eq. 5 into its pointwise datapath — configure the \
                 engine with the freeze threshold"
            );
        }
        Self {
            model,
            pruner: StatePruner::new(threshold),
            encoder: OffsetEncoder::new(policy.offset_bits),
            policy,
        }
    }

    /// The frozen model being served.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The pruning threshold applied to every produced hidden state.
    pub fn threshold(&self) -> f32 {
        self.pruner.threshold()
    }

    /// Derives the skip plan for pruned state lanes: the stored column
    /// indices of the zero-run offset encoding are the rows of `Wh` the
    /// next step must fetch (anchors included — saturated offsets cost a
    /// fetch on hardware too). They are written into `active` (cleared
    /// first, capacity reused); returns the anchor count.
    ///
    /// This is an allocation-free replay of
    /// [`OffsetEncoder::encode`](zskip_core::OffsetEncoder::encode) over
    /// the joint zero/non-zero pattern (tested equivalent in this module);
    /// materializing the `i8` lanes on the hot path cost more than the
    /// skipping saved. It is generic over the state scalar: "zero" is
    /// `0.0` for float lanes and code `0` for quantized lanes — the
    /// offset encoding and the symmetric quantizer agree on it.
    pub fn skip_plan_into(&self, h: &StateLanes<M::State>, active: &mut Vec<usize>) -> usize {
        active.clear();
        let dh = h.cols();
        let max_run = self.encoder.max_run();
        let mut anchors = 0usize;
        let mut run: u16 = 0;
        for j in 0..dh {
            let all_zero = h.column_is_jointly_zero(j);
            if all_zero && run < max_run {
                run += 1;
                continue;
            }
            // Stored column: a real non-zero column, or an anchor forced
            // by offset-field saturation (all_zero && run == max_run).
            if all_zero {
                anchors += 1;
            }
            active.push(j);
            run = 0;
        }
        anchors
    }

    /// Runs one batched recurrent + head step entirely inside `scratch`:
    /// the x-side encoding lands in `scratch.zx`, the skip plan in
    /// `scratch.plan`, the pruned next states in `scratch.h_next` /
    /// `scratch.c_next`, and the logits in `scratch.head.logits`. In
    /// steady state (constant batch shape) the call performs **zero
    /// heap allocations** — the contract the counting-allocator test in
    /// `tests/` pins for the f32 families.
    ///
    /// The arithmetic replicates the family's reference forward pass
    /// operation for operation, so serving a frozen model is
    /// bit-identical to evaluating the reference model with the same
    /// pruner.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty, shapes disagree, or an input fails
    /// the model's validation (out-of-vocab token, non-finite pixel).
    pub fn step_into(
        &self,
        batch: BatchStep<'_, M::Input, M::State>,
        scratch: &mut StepScratch<M::State>,
    ) -> StepStats {
        let dh = self.model.hidden_dim();
        let b = batch.inputs.len();
        assert!(b > 0, "step needs at least one lane");
        assert_eq!(batch.h.rows(), b, "h batch mismatch");
        assert_eq!(batch.h.cols(), dh, "h dim mismatch");
        assert_eq!(batch.c.rows(), b, "c batch mismatch");
        assert_eq!(batch.c.cols(), self.model.cell_dim(), "c dim mismatch");
        for input in batch.inputs {
            assert!(
                self.model.validate_input(input),
                "input {input:?} rejected by the served model"
            );
        }

        scratch.stages.begin();

        // Family-specific x-side encoding (one-hot lookup, embedding
        // lookup + GEMM, pixel GEMM, or integer accumulators).
        self.model.input_encode(batch.inputs, scratch);
        scratch.stages.lap(Stage::InputEncode);

        // Recurrent product, skipping jointly-zero state columns; the
        // family applies its own pruning exactly as its reference does.
        let anchors = self.skip_plan_into(batch.h, &mut scratch.plan.active);
        let use_sparse =
            (scratch.plan.active.len() as f64) < self.policy.dense_fallback * dh as f64;
        let fetched_rows = if use_sparse {
            scratch.plan.active.len()
        } else {
            dh
        };
        scratch.plan.anchors = anchors;
        scratch.plan.use_sparse = use_sparse;
        scratch.stages.lap(Stage::PlanBuild);
        // The family laps `Stage::RecurrentGemm` itself right after its
        // `Wh` product; everything from there to the return is pointwise.
        self.model
            .recurrent_step(batch.h, batch.c, &self.pruner, scratch);
        scratch.stages.lap(Stage::Pointwise);

        // Family head on the pruned state (the head buffers are split
        // off so `h_next` can stay borrowed).
        self.model.head(&scratch.h_next, &mut scratch.head);
        scratch.stages.lap(Stage::Head);

        StepStats {
            lanes: b,
            hidden: dh,
            fetched_rows,
            anchor_columns: anchors,
            skip_fraction: if use_sparse {
                1.0 - fetched_rows as f64 / dh as f64
            } else {
                0.0
            },
            used_sparse_path: use_sparse,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::FrozenGruCharLm;
    use zskip_core::OffsetEncoder;
    use zskip_nn::models::CharLm;
    use zskip_tensor::{Matrix, SeedableStream};

    fn tiny() -> DynamicBatcher {
        let mut rng = SeedableStream::new(5);
        let mut model = CharLm::new(10, 12, &mut rng);
        DynamicBatcher::new(
            FrozenCharLm::freeze(&mut model),
            0.15,
            SkipPolicy::default(),
        )
    }

    #[test]
    fn step_shapes() {
        let b = tiny();
        let h = StateLanes::zeros(3, 12);
        let c = StateLanes::zeros(3, 12);
        let mut out = StepScratch::new();
        let stats = b.step_into(
            BatchStep {
                h: &h,
                c: &c,
                inputs: &[1, 2, 3],
            },
            &mut out,
        );
        assert_eq!((out.head.logits.rows(), out.head.logits.cols()), (3, 10));
        assert_eq!((out.h_next.rows(), out.h_next.cols()), (3, 12));
        assert_eq!(stats.lanes, 3);
    }

    #[test]
    fn gru_step_has_no_cell_state() {
        let model = FrozenGruCharLm::random(10, 12, 3);
        let b = DynamicBatcher::new(model, 0.15, SkipPolicy::default());
        let h = StateLanes::zeros(2, 12);
        let c = StateLanes::zeros(2, 0);
        let mut out = StepScratch::new();
        b.step_into(
            BatchStep {
                h: &h,
                c: &c,
                inputs: &[1, 2],
            },
            &mut out,
        );
        assert_eq!((out.head.logits.rows(), out.head.logits.cols()), (2, 10));
        assert_eq!((out.c_next.rows(), out.c_next.cols()), (2, 0));
    }

    #[test]
    fn skip_plan_matches_offset_encoder_exactly() {
        // The allocation-free walk must replay OffsetEncoder::encode on
        // the zero/non-zero pattern, anchors and all — including offset
        // saturation (small field width forces anchors).
        let mut rng = zskip_tensor::SeedableStream::new(71);
        let mut model = CharLm::new(6, 40, &mut rng);
        for bits in [2u8, 4, 8] {
            let batcher = DynamicBatcher::new(
                FrozenCharLm::freeze(&mut model),
                0.0,
                SkipPolicy {
                    offset_bits: bits,
                    dense_fallback: 0.9,
                },
            );
            for sparsity in [0.0f64, 0.5, 0.9, 1.0] {
                let mut mask_rng = zskip_tensor::SeedableStream::new(bits as u64 ^ 99);
                let h = StateLanes::from_fn(
                    3,
                    40,
                    |_, _| {
                        if mask_rng.coin(sparsity) {
                            0.0
                        } else {
                            0.7
                        }
                    },
                );
                let lanes: Vec<Vec<i8>> = (0..h.rows())
                    .map(|r| h.row(r).iter().map(|v| i8::from(*v != 0.0)).collect())
                    .collect();
                let encoded = OffsetEncoder::new(bits).encode(&lanes);
                let reference: Vec<usize> = encoded.columns().iter().map(|c| c.index).collect();
                let mut active = Vec::new();
                let anchors = batcher.skip_plan_into(&h, &mut active);
                assert_eq!(active, reference, "bits={bits} sparsity={sparsity}");
                assert_eq!(anchors, encoded.anchor_columns());
            }
        }
    }

    #[test]
    #[should_panic(expected = "engine threshold 0.2 != frozen quantized threshold 0.3")]
    fn threshold_mismatch_is_rejected_loudly() {
        let frozen = crate::weights::FrozenQuantizedCharLm::random(8, 6, 0.3, 1);
        let _ = DynamicBatcher::new(frozen, 0.2, SkipPolicy::default());
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_batch_is_rejected_with_a_clear_message() {
        let b = tiny();
        let h = StateLanes::zeros(0, 12);
        let c = StateLanes::zeros(0, 12);
        let _ = b.step_into(
            BatchStep {
                h: &h,
                c: &c,
                inputs: &[],
            },
            &mut StepScratch::new(),
        );
    }

    #[test]
    fn zero_state_skips_almost_everything() {
        let b = tiny();
        let h = StateLanes::zeros(2, 12);
        let mut active = Vec::new();
        let anchors = b.skip_plan_into(&h, &mut active);
        // All-zero state: only saturation anchors are fetched.
        assert_eq!(active.len(), anchors);
        assert!(active.len() <= 12 / 2);
    }

    #[test]
    fn produced_state_respects_threshold() {
        let b = tiny();
        let raw = Matrix::from_fn(2, 12, |r, c| ((r + c) as f32 * 0.3).sin());
        let mut pruned = raw.clone();
        b.pruner.prune_slice(pruned.as_mut_slice());
        let c = StateLanes::zeros(2, 12);
        let mut out = StepScratch::new();
        b.step_into(
            BatchStep {
                h: &StateLanes::from(pruned),
                c: &c,
                inputs: &[0, 9],
            },
            &mut out,
        );
        for v in out.h_next.as_slice() {
            assert!(*v == 0.0 || v.abs() >= b.threshold());
        }
    }

    #[test]
    fn dense_fallback_reports_no_skip() {
        let mut rng = SeedableStream::new(6);
        let mut model = CharLm::new(8, 6, &mut rng);
        let batcher = DynamicBatcher::new(
            FrozenCharLm::freeze(&mut model),
            0.0,
            SkipPolicy {
                offset_bits: 8,
                dense_fallback: 0.0,
            },
        );
        let h = StateLanes::zeros(1, 6);
        let c = StateLanes::zeros(1, 6);
        let stats = batcher.step_into(
            BatchStep {
                h: &h,
                c: &c,
                inputs: &[0],
            },
            &mut StepScratch::new(),
        );
        assert!(!stats.used_sparse_path);
        assert_eq!(stats.fetched_rows, 6);
        assert_eq!(stats.skip_fraction, 0.0);
    }

    #[test]
    fn dense_fallback_is_inclusive_and_never_above_one() {
        let mut rng = SeedableStream::new(6);
        let mut model = CharLm::new(8, 6, &mut rng);
        let frozen = FrozenCharLm::freeze(&mut model);
        let half = StateLanes::from_fn(1, 6, |_, c| if c % 2 == 0 { 0.7 } else { 0.0 });
        let full = StateLanes::from_fn(1, 6, |_, _| 0.7);
        let c = StateLanes::zeros(1, 6);
        // (state, live columns, dense_fallback, runs dense): 3 of 6 live
        // at 0.5 sits exactly on the boundary.
        for (h, live, dense_fallback, dense) in [
            (&half, 3, 0.5, true),
            (&half, 3, 2.0, false),
            (&full, 6, 2.0, false),
        ] {
            let policy = SkipPolicy {
                offset_bits: 8,
                dense_fallback,
            };
            let batcher = DynamicBatcher::new(frozen.clone(), 0.0, policy);
            let mut active = Vec::new();
            batcher.skip_plan_into(h, &mut active);
            assert_eq!(active.len(), live);
            let step = BatchStep {
                h,
                c: &c,
                inputs: &[0],
            };
            let stats = batcher.step_into(step, &mut StepScratch::new());
            assert_eq!(
                stats.used_sparse_path, !dense,
                "{live} live, dense_fallback {dense_fallback}"
            );
        }
    }
}
