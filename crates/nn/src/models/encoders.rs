//! What turns a step's input into the matrix a recurrent layer consumes.

use crate::dropout::Dropout;
use crate::embedding::Embedding;
use crate::params::{ParamVisitor, Parameterized};
use zskip_tensor::Matrix;

/// Encodes one step's input across the batch lanes as the `B × dx`
/// matrix a [`Recurrent`](super::Recurrent) layer consumes, and owns
/// whatever sits on the model's non-recurrent connections.
pub trait InputEncoder: Parameterized {
    /// One step's input across the batch lanes.
    type Step: ?Sized;

    /// Whether the encoder has parameters to learn: only then does the
    /// layer compute input gradients for [`Self::backward`].
    const LEARNS: bool = false;

    /// Width `dx` of an encoded step — the `Wx` rows of the layer.
    fn width(&self) -> usize;

    /// Encodes one step (inference form: no dropout).
    fn encode(&self, step: &Self::Step) -> Matrix;

    /// The training-time dropout on the non-recurrent connections — the
    /// encoded input and the layer's output before the head — if any.
    fn dropout(&self) -> Option<Dropout> {
        None
    }

    /// Accumulates the gradient w.r.t. one encoded step into the
    /// encoder's parameters (called only when [`Self::LEARNS`]).
    fn backward(&mut self, _step: &Self::Step, _d_x: &Matrix) {}
}

/// One-hot token ids: the `Wx·x` product degenerates to a row lookup,
/// which is how the paper's accelerator implements it for characters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OneHot {
    /// Vocabulary size (the encoded width).
    pub vocab: usize,
}

impl InputEncoder for OneHot {
    type Step = [usize];

    fn width(&self) -> usize {
        self.vocab
    }

    /// # Panics
    ///
    /// Panics if an id is out of vocabulary.
    fn encode(&self, ids: &[usize]) -> Matrix {
        let mut m = Matrix::zeros(ids.len(), self.vocab);
        for (r, &id) in ids.iter().enumerate() {
            assert!(id < self.vocab, "char id {id} out of vocab {}", self.vocab);
            m[(r, id)] = 1.0;
        }
        m
    }
}

impl Parameterized for OneHot {
    fn visit_params(&mut self, _visitor: &mut dyn ParamVisitor) {}
}

/// A learned embedding table with dropout on the non-recurrent
/// connections, exactly as in Zaremba et al. \[17\]: a fresh mask per
/// timestep on the embedded input and on the layer's output, never on
/// the `h[t-1] → h[t]` path. The encoded input is a dense real vector,
/// so the accelerator cannot skip the `Wx·x` half of the recurrent work
/// for this input — the source of the word task's smaller speedups in
/// Fig. 8.
#[derive(Clone, Debug)]
pub struct Embedded {
    pub(super) embedding: Embedding,
    pub(super) dropout: Dropout,
}

impl InputEncoder for Embedded {
    type Step = [usize];

    const LEARNS: bool = true;

    fn width(&self) -> usize {
        self.embedding.dim()
    }

    fn encode(&self, ids: &[usize]) -> Matrix {
        self.embedding.forward(ids)
    }

    fn dropout(&self) -> Option<Dropout> {
        Some(self.dropout)
    }

    fn backward(&mut self, ids: &[usize], d_x: &Matrix) {
        self.embedding.backward(ids, d_x);
    }
}

impl Parameterized for Embedded {
    fn visit_params(&mut self, visitor: &mut dyn ParamVisitor) {
        self.embedding.visit_params(visitor);
    }
}

/// Real-valued inputs, `width` per lane per step: one pixel (`width` 1,
/// the paper's pixel-by-pixel scan) or one image row. A step is the
/// lanes' values back to back, `B · width` of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rows {
    /// Values per lane per step.
    pub width: usize,
}

impl InputEncoder for Rows {
    type Step = [f32];

    fn width(&self) -> usize {
        self.width
    }

    /// # Panics
    ///
    /// Panics if the step's length is not a multiple of the width.
    fn encode(&self, step: &[f32]) -> Matrix {
        Matrix::from_vec(step.len() / self.width, self.width, step.to_vec())
    }
}

impl Parameterized for Rows {
    fn visit_params(&mut self, _visitor: &mut dyn ParamVisitor) {}
}
