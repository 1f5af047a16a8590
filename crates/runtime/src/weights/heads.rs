//! The classifier heads: f32 for the float cells, `i8 × i8 → i32` for
//! the quantized cell.

use super::{Head, RecurrentCell, TensorBag};
use crate::model::{HeadScratch, StateLanes};
use crate::snapshot::{self, invalid};
use zskip_core::QuantizedLstm;
use zskip_tensor::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use zskip_tensor::{Matrix, QMatrix, Quantizer, SeedableStream};

/// Frozen classifier head: `logits = hp·W + b`, replicating
/// `zskip_nn::Linear::forward`.
#[derive(Clone, Debug)]
pub struct FrozenHead {
    w: Matrix,
    b: Vec<f32>,
}

impl FrozenHead {
    /// Bundles head weights (`W : dh × out`, `b : out`).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != w.cols()`.
    pub fn new(w: Matrix, b: Vec<f32>) -> Self {
        assert_eq!(b.len(), w.cols(), "head bias shape");
        Self { w, b }
    }

    /// Takes `linear.w`, `linear.b` off a training export.
    pub(crate) fn take(bag: &mut TensorBag, hidden: usize, output: usize) -> Self {
        let w = bag.take_matrix("linear.w", hidden, output);
        Self::new(w, bag.take_vec("linear.b", output))
    }

    /// Bench weights: `W` drawn uniformly in `±1/√dh`, zero bias.
    pub(crate) fn random(hidden: usize, output: usize, rng: &mut SeedableStream) -> Self {
        let w = super::random_matrix(hidden, output, hidden, rng);
        Self::new(w, vec![0.0; output])
    }

    /// Head weights (`dh × out`).
    pub fn weight(&self) -> &Matrix {
        &self.w
    }

    /// Head bias (`out`).
    pub fn bias(&self) -> &[f32] {
        &self.b
    }
}

impl<C: RecurrentCell<State = f32>> Head<C> for FrozenHead {
    fn input_dim(&self) -> usize {
        self.w.rows()
    }

    fn output_dim(&self) -> usize {
        self.w.cols()
    }

    /// Copy-free on the state lanes; `scratch.logits` is resized to
    /// `B × output_dim` reusing its storage.
    fn forward(&self, hp: &StateLanes<f32>, scratch: &mut HeadScratch) {
        let out = &mut scratch.logits;
        Matrix::matmul_from_rows_into(hp.as_slice(), hp.rows(), &self.w, out);
        out.add_row_broadcast(&self.b);
    }

    fn write_sections(&self, w: &mut SnapshotWriter) {
        snapshot::write_matrix(w, "head.w", &self.w);
        w.f32s("head.b", &[self.b.len()], &self.b);
    }

    fn read_sections(r: &mut SnapshotReader<'_>, _cell: &C) -> Result<Self, SnapshotError> {
        let w = snapshot::read_matrix(r, "head.w")?;
        let (_, b) = r.f32s("head.b")?;
        if b.len() != w.cols() {
            return Err(invalid(
                "head",
                format!(
                    "head bias has {} entries, weight has {} columns",
                    b.len(),
                    w.cols()
                ),
            ));
        }
        Ok(Self { w, b })
    }
}

/// 8-bit quantized head over the quantized cell's `i8` state codes:
/// `i32` accumulation, one rescale per logit — the same requantization
/// shape as the gate datapath — and a full-precision bias.
#[derive(Clone, Debug)]
pub struct QuantizedHead {
    w: QMatrix,
    b: Vec<f32>,
    /// `w.step · h.step`: the accumulator → logit rescale. Derived from
    /// the weights' and the cell's hidden-state quantizer at
    /// construction and at load, never serialized.
    scale: f32,
}

impl QuantizedHead {
    /// Bundles quantized head weights (`W : dh × out`, `b : out`) for a
    /// cell whose hidden codes are in `h_quant` steps.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != w.cols()`, or if the head is so tall that
    /// an `i32` accumulator could overflow
    /// ([`QMatrix::check_gemm_t_acc`]).
    pub fn new(w: QMatrix, b: Vec<f32>, h_quant: Quantizer) -> Self {
        Self::checked(w, b, h_quant).unwrap_or_else(|e| panic!("cannot quantize head: {e}"))
    }

    fn checked(w: QMatrix, b: Vec<f32>, h_quant: Quantizer) -> Result<Self, SnapshotError> {
        w.check_gemm_t_acc()
            .map_err(|reason| invalid("head.w.codes", reason))?;
        if b.len() != w.cols() {
            return Err(invalid("head.b", "head bias length is not the head width"));
        }
        let scale = w.quantizer().step() * h_quant.step();
        Ok(Self { w, b, scale })
    }
}

impl Head<QuantizedLstm> for QuantizedHead {
    fn input_dim(&self) -> usize {
        self.w.rows()
    }

    fn output_dim(&self) -> usize {
        self.w.cols()
    }

    /// `i8` state codes against the `i8` head weights with `i32`
    /// accumulation (staged in `scratch.acc`), rescaled once per logit.
    fn forward(&self, hp: &StateLanes<i8>, scratch: &mut HeadScratch) {
        let (scale, out) = (self.scale, self.w.cols());
        self.w
            .gemm_t_i32_into(hp.as_slice(), hp.rows(), &mut scratch.acc);
        scratch.logits.resize_for_overwrite(hp.rows(), out);
        for r in 0..hp.rows() {
            let acc_row = &scratch.acc[r * out..(r + 1) * out];
            for ((dst, a), b) in scratch
                .logits
                .row_mut(r)
                .iter_mut()
                .zip(acc_row)
                .zip(&self.b)
            {
                *dst = *a as f32 * scale + *b;
            }
        }
    }

    fn write_sections(&self, w: &mut SnapshotWriter) {
        snapshot::write_qmatrix(w, "head.w", &self.w);
        w.f32s("head.b", &[self.b.len()], &self.b);
    }

    fn read_sections(
        r: &mut SnapshotReader<'_>,
        cell: &QuantizedLstm,
    ) -> Result<Self, SnapshotError> {
        let w = snapshot::read_qmatrix(r, "head.w")?;
        let (_, b) = r.f32s("head.b")?;
        Self::checked(w, b, cell.h_quantizer())
    }
}
