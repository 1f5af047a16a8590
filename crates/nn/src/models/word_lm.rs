//! Word-level language model (Section II-B2).

use super::{Embedded, Lm};
use crate::lstm::LstmLayer;

/// Embedding → dropout → LSTM → dropout → softmax classifier.
///
/// Dropout is applied only on the non-recurrent connections, exactly as in
/// Zaremba et al. \[17\], with a fresh mask per timestep (see
/// [`Embedded`]).
///
/// Tensor contract: `embedding.table` (`vocab × emb`), `lstm.wx`
/// (`emb × 4dh`), `lstm.wh` (`dh × 4dh`), `lstm.b` (`4dh`), `linear.w`
/// (`dh × vocab`), `linear.b` (`vocab`).
///
/// # Example
///
/// ```
/// use zskip_nn::models::{CarryState, WordLm};
/// use zskip_nn::IdentityTransform;
/// use zskip_tensor::SeedableStream;
///
/// let mut rng = SeedableStream::new(0);
/// let model = WordLm::new(100, 16, 12, 0.5, &mut rng);
/// let mut state = CarryState::zeros(2, 12);
/// let inputs = vec![vec![1usize, 2]]; // T=1, B=2
/// let targets = vec![vec![3usize, 4]];
/// let stats = model.eval_batch(&inputs, &targets, &mut state, &IdentityTransform);
/// assert_eq!(stats.tokens, 2);
/// ```
pub type WordLm = Lm<Embedded, LstmLayer>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Parameterized;
    use zskip_tensor::SeedableStream;

    #[test]
    fn param_count_includes_all_layers() {
        let mut rng = SeedableStream::new(4);
        let mut model = WordLm::new(10, 4, 6, 0.5, &mut rng);
        // embedding 10*4 + lstm (4*24 + 6*24 + 24) + head (6*10 + 10)
        let expect = 40 + (4 * 24 + 6 * 24 + 24) + (60 + 10);
        assert_eq!(model.param_count(), expect);
    }
}
