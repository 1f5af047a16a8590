//! GRU variant of the character-level language model — used to test the
//! paper's implicit claim that state pruning generalizes beyond LSTMs.

use super::{Lm, OneHot};
use crate::gru::GruLayer;

/// One GRU layer over one-hot characters followed by a softmax classifier.
///
/// Note the architectural difference that matters for pruning: a GRU has
/// no protected cell state — its *only* memory is the pruned `h` — so
/// aggressive thresholds bite harder than in the LSTM (quantified by the
/// `ablation_cell_type` binary). Training and evaluation advance
/// `state.h` and leave `state.c` untouched.
///
/// Tensor contract: `gru.wx` (`vocab × 3dh`), `gru.wh` (`dh × 3dh`),
/// `gru.b` (`3dh`), `linear.w` (`dh × vocab`), `linear.b` (`vocab`).
///
/// # Example
///
/// ```
/// use zskip_nn::models::{CarryState, GruCharLm};
/// use zskip_nn::IdentityTransform;
/// use zskip_tensor::SeedableStream;
///
/// let mut rng = SeedableStream::new(0);
/// let model = GruCharLm::new(16, 8, &mut rng);
/// let mut state = CarryState::zeros(2, 8);
/// let stats = model.eval_batch(
///     &[vec![1usize, 2]], &[vec![3usize, 4]], &mut state,
///     &IdentityTransform);
/// assert_eq!(stats.tokens, 2);
/// ```
pub type GruCharLm = Lm<OneHot, GruLayer>;
