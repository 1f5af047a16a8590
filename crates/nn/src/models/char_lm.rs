//! Character-level language model (Section II-B1).

use super::{Lm, OneHot};
use crate::lstm::LstmLayer;

/// One LSTM layer over one-hot characters followed by a softmax classifier.
///
/// The paper notes that for one-hot inputs "the vector-matrix
/// multiplication of `Wx·x` is implemented as a look-up table"; here the
/// one-hot rows make the GEMM degenerate to exactly that lookup.
///
/// Tensor contract: `lstm.wx` (`vocab × 4dh`), `lstm.wh` (`dh × 4dh`),
/// `lstm.b` (`4dh`), `linear.w` (`dh × vocab`), `linear.b` (`vocab`).
///
/// # Example
///
/// ```
/// use zskip_nn::models::{CarryState, CharLm};
/// use zskip_nn::IdentityTransform;
/// use zskip_tensor::SeedableStream;
///
/// let mut rng = SeedableStream::new(0);
/// let mut model = CharLm::new(16, 8, &mut rng);
/// let mut state = CarryState::zeros(2, 8);
/// let inputs = vec![vec![1usize, 2], vec![3, 4]]; // T=2, B=2
/// let targets = vec![vec![3usize, 4], vec![5, 6]];
/// let stats = model.train_batch(&inputs, &targets, &mut state, &IdentityTransform);
/// assert_eq!(stats.tokens, 4);
/// ```
pub type CharLm = Lm<OneHot, LstmLayer>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstm::IdentityTransform;
    use crate::models::lm::tests::toy_batch;
    use crate::models::CarryState;
    use zskip_tensor::SeedableStream;

    #[test]
    fn state_carries_between_windows() {
        let mut rng = SeedableStream::new(4);
        let model = CharLm::new(8, 6, &mut rng);
        let (inputs, targets) = toy_batch(3, 2, 8, 5);
        let mut state = CarryState::zeros(2, 6);
        model.eval_batch(&inputs, &targets, &mut state, &IdentityTransform);
        assert!(state.h.max_abs() > 0.0, "state did not advance");
    }

    #[test]
    fn state_trace_has_one_entry_per_step() {
        let mut rng = SeedableStream::new(6);
        let model = CharLm::new(8, 6, &mut rng);
        let (inputs, _) = toy_batch(5, 2, 8, 7);
        let mut state = CarryState::zeros(2, 6);
        let trace = model.state_trace(&inputs, &mut state, &IdentityTransform);
        assert_eq!(trace.len(), 5);
        assert_eq!(trace[0].rows(), 2);
        assert_eq!(trace[0].cols(), 6);
    }
}
