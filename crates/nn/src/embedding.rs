//! Token embedding layer.
//!
//! The paper's word-level model uses "an embedding layer of size 300 to
//! reduce the dimension of the input vector" (Section II-B2); the same
//! lookup also models the `Wx·x` table lookup for one-hot inputs when a
//! model wants to avoid a dense one-hot GEMM.

use crate::params::{ParamVisitor, Parameterized};
use zskip_tensor::{Matrix, SeedableStream};

/// A `vocab × dim` embedding table with sparse gradient accumulation.
///
/// # Example
///
/// ```
/// use zskip_nn::Embedding;
/// use zskip_tensor::SeedableStream;
///
/// let mut rng = SeedableStream::new(0);
/// let emb = Embedding::new(10, 4, &mut rng);
/// let out = emb.forward(&[3, 7]);
/// assert_eq!((out.rows(), out.cols()), (2, 4));
/// ```
#[derive(Clone, Debug)]
pub struct Embedding {
    vocab: usize,
    dim: usize,
    table: Matrix,
    dtable: Option<Matrix>,
}

impl Embedding {
    /// Creates a table initialized from `U(-0.1, 0.1)`.
    pub fn new(vocab: usize, dim: usize, rng: &mut SeedableStream) -> Self {
        assert!(vocab > 0 && dim > 0, "embedding dims must be positive");
        Self {
            vocab,
            dim,
            table: crate::init::uniform(vocab, dim, 0.1, rng),
            dtable: None,
        }
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Looks up a batch of ids; returns `B × dim`.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of vocabulary.
    pub fn forward(&self, ids: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(ids.len(), self.dim);
        for (r, &id) in ids.iter().enumerate() {
            assert!(id < self.vocab, "id {id} out of vocabulary {}", self.vocab);
            out.row_mut(r).copy_from_slice(self.table.row(id));
        }
        out
    }

    /// Scatter-accumulates output gradients back into the table rows.
    ///
    /// # Panics
    ///
    /// Panics if shapes mismatch or an id is out of vocabulary.
    pub fn backward(&mut self, ids: &[usize], d_out: &Matrix) {
        assert_eq!(d_out.rows(), ids.len(), "embedding grad batch mismatch");
        assert_eq!(d_out.cols(), self.dim, "embedding grad dim mismatch");
        let (v, d) = (self.vocab, self.dim);
        let dtable = self.dtable.get_or_insert_with(|| Matrix::zeros(v, d));
        for (r, &id) in ids.iter().enumerate() {
            assert!(id < self.vocab, "id {id} out of vocabulary {}", self.vocab);
            let dst = dtable.row_mut(id);
            for (a, g) in dst.iter_mut().zip(d_out.row(r)) {
                *a += g;
            }
        }
    }
}

impl Parameterized for Embedding {
    fn visit_params(&mut self, visitor: &mut dyn ParamVisitor) {
        let (v, d) = (self.vocab, self.dim);
        let dtable = self.dtable.get_or_insert_with(|| Matrix::zeros(v, d));
        visitor.visit(
            "embedding.table",
            self.table.as_mut_slice(),
            dtable.as_mut_slice(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_selects_rows() {
        let mut rng = SeedableStream::new(1);
        let emb = Embedding::new(5, 3, &mut rng);
        let out = emb.forward(&[2, 2, 4]);
        assert_eq!(out.row(0), out.row(1));
        assert_ne!(out.row(0), out.row(2));
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn forward_rejects_oov() {
        let mut rng = SeedableStream::new(2);
        let emb = Embedding::new(5, 3, &mut rng);
        let _ = emb.forward(&[5]);
    }

    #[test]
    fn backward_accumulates_per_row() {
        let mut rng = SeedableStream::new(3);
        let mut emb = Embedding::new(4, 2, &mut rng);
        let d = Matrix::from_rows(&[&[1.0, 2.0], &[10.0, 20.0], &[100.0, 200.0]]);
        emb.backward(&[1, 1, 3], &d);
        struct Grab(Vec<f32>);
        impl ParamVisitor for Grab {
            fn visit(&mut self, _n: &str, _p: &mut [f32], g: &mut [f32]) {
                self.0 = g.to_vec();
            }
        }
        let mut grab = Grab(Vec::new());
        emb.visit_params(&mut grab);
        // Row 1 got both contributions; row 3 got one; rows 0/2 none.
        assert_eq!(&grab.0[2..4], &[11.0, 22.0]);
        assert_eq!(&grab.0[6..8], &[100.0, 200.0]);
        assert_eq!(&grab.0[0..2], &[0.0, 0.0]);
        assert_eq!(&grab.0[4..6], &[0.0, 0.0]);
    }
}
