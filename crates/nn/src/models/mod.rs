//! The paper's three task models, built from interchangeable parts.
//!
//! The paper runs one recipe — prune the recurrent state, train through
//! the pruner with straight-through gradients — over three tasks, and the
//! models differ only at the ends. So the training side, like the frozen
//! serving side, is assembled from parts: an [`InputEncoder`], a
//! [`Recurrent`] layer and a [`Linear`](crate::Linear) softmax head. There
//! are two shapes — [`Lm`], which scores every step of a carried BPTT
//! window, and [`Classifier`], which scores the final state of a sequence
//! — and each family is an alias:
//!
//! | family | shape | encoder | recurrent layer | paper |
//! |---|---|---|---|---|
//! | [`CharLm`] | [`Lm`] | [`OneHot`] | [`LstmLayer`](crate::LstmLayer) | II-B1, `dh = 1000`, vocab 50 |
//! | [`GruCharLm`] | [`Lm`] | [`OneHot`] | [`GruLayer`](crate::GruLayer) | — (cell-type ablation) |
//! | [`WordLm`] | [`Lm`] | [`Embedded`] (with dropout) | [`LstmLayer`](crate::LstmLayer) | II-B2, `dh = 300`, vocab 10k |
//! | [`SeqClassifier`] | [`Classifier`] | [`Rows`] | [`LstmLayer`](crate::LstmLayer) | II-B3, `dh = 100` |
//!
//! What each part owns:
//!
//! * **The encoder** turns one step's input into the `B × dx` matrix the
//!   layer consumes, and owns what sits on the non-recurrent
//!   connections: the embedding table and the dropout on both sides of
//!   the layer.
//! * **The recurrent layer** unrolls over a window from a [`CarryState`]
//!   with a [`StateTransform`](crate::StateTransform) on the state path
//!   (the identity, or the pruner), runs BPTT back through it, and says
//!   which parts of the state it carries (the GRU has no cell state).
//! * **The shape** owns the loss: per-step cross-entropy averaged over
//!   the window for an LM, final-step cross-entropy for a classifier.
//!
//! **Adding a family.** A trained family is an encoder plus an alias: a
//! GRU word-LM is `Lm<Embedded, GruLayer>`. A new cell (say a
//! temporal-skip cell) is one [`Recurrent`] impl and serves every shape
//! and encoder. The training harnesses in `zskip-core` are generic over
//! both, and a family's tensor names are its parts' names in order
//! (encoder, layer, head), which is what the serving freezers match.

mod char_lm;
mod encoders;
mod gru_char_lm;
mod lm;
mod recurrent;
mod seq_classifier;
mod word_lm;

pub use char_lm::CharLm;
pub use encoders::{Embedded, InputEncoder, OneHot, Rows};
pub use gru_char_lm::GruCharLm;
pub use lm::Lm;
pub use recurrent::{Recurrent, SequenceGrads};
pub use seq_classifier::{Classifier, SeqClassifier};
pub use word_lm::WordLm;

use crate::loss::softmax_cross_entropy;
use zskip_tensor::Matrix;

/// Loss/accuracy summary of one batch.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BatchStats {
    /// Mean cross-entropy per token, in nats.
    pub mean_nats: f32,
    /// Number of scored tokens.
    pub tokens: usize,
    /// Number of correct argmax predictions.
    pub correct: usize,
}

/// Recurrent state carried between consecutive BPTT windows (stateful LM
/// training). Gradients never flow across windows — the carried state is
/// a detached value.
#[derive(Clone, Debug)]
pub struct CarryState {
    /// Hidden state (`B × dh`), already transformed.
    pub h: Matrix,
    /// Cell state (`B × dh`).
    pub c: Matrix,
}

impl CarryState {
    /// Zero state for a batch of `batch` lanes and hidden size `hidden`.
    pub fn zeros(batch: usize, hidden: usize) -> Self {
        Self {
            h: Matrix::zeros(batch, hidden),
            c: Matrix::zeros(batch, hidden),
        }
    }
}

/// Running cross-entropy over the scored steps of one batch. Each step's
/// mean loss is weighted (`1/T` for an LM window, 1 for a classifier's
/// single scored step) and summed in f64.
#[derive(Default)]
struct Tally {
    nats: f64,
    tokens: usize,
    correct: usize,
}

impl Tally {
    /// Scores one step and returns its (unweighted) logit gradient.
    fn score(&mut self, logits: &Matrix, targets: &[usize], weight: f32) -> Matrix {
        let out = softmax_cross_entropy(logits, targets);
        self.nats += out.loss as f64 * weight as f64;
        self.correct += out.correct;
        self.tokens += targets.len();
        out.d_logits
    }

    fn stats(&self) -> BatchStats {
        BatchStats {
            mean_nats: self.nats as f32,
            tokens: self.tokens,
            correct: self.correct,
        }
    }
}
