//! The input encoders: what turns one step's inputs into the cell's
//! x-side. An encoder owns only what is its own — the vocabulary bound,
//! the embedding table, the staging in `scratch.embed` — and chooses
//! which of the cell's two x-side entry points to call.

use super::{DenseInputCell, InputEncoder, RecurrentCell};
use crate::model::{ScalarDomain, StepScratch, TokenDomain};
use crate::snapshot::{self, invalid};
use zskip_tensor::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use zskip_tensor::Matrix;

/// One-hot token input: `Wx·x` is the lookup of `Wx` row `token`, for
/// any cell. This is the paper's fully skippable case — no dense work
/// on the x-side at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OneHot {
    /// Tokens are ids in `0..vocab`.
    pub vocab: usize,
}

impl<C: RecurrentCell> InputEncoder<C> for OneHot {
    type Input = usize;
    type Spec = TokenDomain;

    fn input_spec(&self) -> TokenDomain {
        TokenDomain { vocab: self.vocab }
    }

    fn wx_rows(&self) -> usize {
        self.vocab
    }

    fn encode(&self, cell: &C, inputs: &[usize], scratch: &mut StepScratch<C::State>) {
        cell.encode_rows(inputs, scratch);
    }

    fn read_sections(_r: &mut SnapshotReader<'_>, width: usize) -> Result<Self, SnapshotError> {
        Ok(Self { vocab: width })
    }
}

/// Token input through an embedding table (`vocab × dx`), then the
/// cell's dense `Wx` GEMM. The embedded input is a dense real vector, so
/// the `Wx·x` half of the step cannot be skipped (the paper's Fig. 8
/// smaller-speedup case) — only the `Wh` rows of jointly-zero state
/// columns are.
#[derive(Clone, Debug)]
pub struct Embedding {
    /// The embedding table (`vocab × dx`).
    pub table: Matrix,
}

impl<C: DenseInputCell> InputEncoder<C> for Embedding {
    type Input = usize;
    type Spec = TokenDomain;

    fn input_spec(&self) -> TokenDomain {
        TokenDomain {
            vocab: self.table.rows(),
        }
    }

    fn wx_rows(&self) -> usize {
        self.table.cols()
    }

    /// Embedding row lookup (bit-identical to `Embedding::forward`,
    /// which also copies rows) staged in `scratch.embed`, then the
    /// cell's dense x-side on the embedded batch.
    fn encode(&self, cell: &C, inputs: &[usize], scratch: &mut StepScratch<f32>) {
        scratch
            .embed
            .resize_for_overwrite(inputs.len(), self.table.cols());
        for (r, &tok) in inputs.iter().enumerate() {
            scratch
                .embed
                .row_mut(r)
                .copy_from_slice(self.table.row(tok));
        }
        cell.encode_dense(scratch);
    }

    fn write_sections(&self, w: &mut SnapshotWriter) {
        snapshot::write_matrix(w, "embedding", &self.table);
    }

    fn read_sections(r: &mut SnapshotReader<'_>, width: usize) -> Result<Self, SnapshotError> {
        let table = snapshot::read_matrix(r, "embedding")?;
        if table.rows() != width {
            return Err(invalid(
                "embedding",
                "embedding rows disagree with the stored vocab",
            ));
        }
        Ok(Self { table })
    }
}

/// One scalar per step (`dx = 1`, the paper's pixel-by-pixel
/// sequential-MNIST setup, where virtually all recurrent work is the
/// skippable `Wh·h` product).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScalarInput;

impl<C: DenseInputCell> InputEncoder<C> for ScalarInput {
    type Input = f32;
    type Spec = ScalarDomain;

    fn input_spec(&self) -> ScalarDomain {
        ScalarDomain
    }

    fn wx_rows(&self) -> usize {
        1
    }

    /// Packs the scalars into the training path's `B × 1` step matrix
    /// (staged in `scratch.embed`) and runs the cell's dense x-side.
    fn encode(&self, cell: &C, inputs: &[f32], scratch: &mut StepScratch<f32>) {
        scratch.embed.resize_for_overwrite(inputs.len(), 1);
        scratch.embed.as_mut_slice().copy_from_slice(inputs);
        cell.encode_dense(scratch);
    }

    fn read_sections(_r: &mut SnapshotReader<'_>, _width: usize) -> Result<Self, SnapshotError> {
        Ok(Self)
    }
}
