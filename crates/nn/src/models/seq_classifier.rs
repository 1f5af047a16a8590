//! Sequential image classification (Section II-B3): the classifier shape.

use super::{BatchStats, CarryState, InputEncoder, Recurrent, Rows, Tally};
use crate::gates::SequenceCache;
use crate::linear::Linear;
use crate::lstm::{LstmLayer, StateTransform};
use crate::params::{ParamVisitor, Parameterized};
use zskip_tensor::{GateActivations, Matrix, SeedableStream};

/// A sequence classifier: [`Rows`] steps into one [`Recurrent`] layer
/// from a zero state, with a softmax read-out from the final transformed
/// state only.
#[derive(Clone, Debug)]
pub struct Classifier<R> {
    input: Rows,
    rnn: R,
    head: Linear,
}

/// Pixel-by-pixel sequence classifier: one scalar pixel per timestep into
/// an LSTM, with a softmax read-out from the final hidden state — the
/// sequential-MNIST setup of Le et al. \[15\] the paper follows.
///
/// For this task `dx = 1`, so virtually all recurrent work is the
/// skippable `Wh·h` product — which is why MNIST shows large sparse
/// speedups in Fig. 8 despite its small `dh`.
///
/// Tensor contract: `lstm.wx` (`dx × 4dh`), `lstm.wh` (`dh × 4dh`),
/// `lstm.b` (`4dh`), `linear.w` (`dh × classes`), `linear.b` (`classes`).
///
/// # Example
///
/// ```
/// use zskip_nn::models::SeqClassifier;
/// use zskip_nn::IdentityTransform;
/// use zskip_tensor::SeedableStream;
///
/// let mut rng = SeedableStream::new(0);
/// let model = SeqClassifier::new(10, 8, &mut rng);
/// // Two 9-pixel "images" of class 3 and 7.
/// let pixels = vec![vec![0.1f32; 2]; 9];
/// let stats = model.eval_batch(&pixels, &[3, 7], &IdentityTransform);
/// assert_eq!(stats.tokens, 2);
/// ```
pub type SeqClassifier = Classifier<LstmLayer>;

impl<R: Recurrent> Classifier<R> {
    /// Creates a classifier with `classes` output classes and `hidden`
    /// recurrent units over scalar (pixel-by-pixel) inputs, as in the
    /// paper.
    pub fn new(classes: usize, hidden: usize, rng: &mut SeedableStream) -> Self {
        Self::with_input_dim(classes, 1, hidden, rng)
    }

    /// Creates a classifier whose steps consume `input_dim`-wide vectors
    /// (e.g. one image row per step — the fast-training variant used at
    /// quick experiment scale).
    pub fn with_input_dim(
        classes: usize,
        input_dim: usize,
        hidden: usize,
        rng: &mut SeedableStream,
    ) -> Self {
        Self::with_activations(classes, input_dim, hidden, GateActivations::Smooth, rng)
    }

    /// [`Self::with_input_dim`] under an explicit [`GateActivations`]
    /// contract for the recurrent gates (the head stays plain f32
    /// arithmetic).
    pub fn with_activations(
        classes: usize,
        input_dim: usize,
        hidden: usize,
        acts: GateActivations,
        rng: &mut SeedableStream,
    ) -> Self {
        let rnn = R::with_activations(input_dim, hidden, acts, rng);
        let head = Linear::new(hidden, classes, rng);
        Self {
            input: Rows { width: input_dim },
            rnn,
            head,
        }
    }

    /// Input width per step (1 for pixel scan).
    pub fn input_dim(&self) -> usize {
        self.input.width
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.head.output_dim()
    }

    /// Hidden dimension.
    pub fn hidden_dim(&self) -> usize {
        self.rnn.hidden_dim()
    }

    /// The classifier head.
    pub fn head(&self) -> &Linear {
        &self.head
    }

    /// Forward + backward on one batch of pixel sequences.
    ///
    /// `pixels[t]` holds the pixel value at step `t` for each lane;
    /// `labels` has one class id per lane. Loss is applied only at the
    /// final step. Gradients accumulate into the model.
    ///
    /// # Panics
    ///
    /// Panics if lane counts differ between steps/labels.
    pub fn train_batch(
        &mut self,
        pixels: &[Vec<f32>],
        labels: &[usize],
        transform: &dyn StateTransform,
    ) -> BatchStats {
        let xs = self.pixel_steps(pixels);
        self.train_batch_xs(&xs, labels, transform)
    }

    /// Vector-input variant of [`Self::train_batch`]: `xs[t]` is the
    /// `B × input_dim` input at step `t`.
    ///
    /// # Panics
    ///
    /// Panics if lane counts differ between steps/labels.
    pub fn train_batch_xs(
        &mut self,
        xs: &[Matrix],
        labels: &[usize],
        transform: &dyn StateTransform,
    ) -> BatchStats {
        let cache = self.unroll(xs, labels.len(), transform);
        let last = xs.len() - 1;
        let final_hp = cache.hp(last);
        let mut tally = Tally::default();
        let d_logits = tally.score(&self.head.forward(final_hp), labels, 1.0);
        let mut d_hp = vec![Matrix::zeros(labels.len(), self.hidden_dim()); xs.len()];
        d_hp[last] = self.head.backward(final_hp, &d_logits);
        self.rnn.backward_sequence(&cache, &d_hp, transform, false);
        tally.stats()
    }

    /// Forward-only evaluation.
    pub fn eval_batch(
        &self,
        pixels: &[Vec<f32>],
        labels: &[usize],
        transform: &dyn StateTransform,
    ) -> BatchStats {
        self.eval_batch_xs(&self.pixel_steps(pixels), labels, transform)
    }

    /// Vector-input variant of [`Self::eval_batch`].
    pub fn eval_batch_xs(
        &self,
        xs: &[Matrix],
        labels: &[usize],
        transform: &dyn StateTransform,
    ) -> BatchStats {
        let cache = self.unroll(xs, labels.len(), transform);
        let mut tally = Tally::default();
        let logits = self.head.forward(cache.hp(xs.len() - 1));
        tally.score(&logits, labels, 1.0);
        tally.stats()
    }

    /// Forward-only pass returning the transformed hidden-state trace.
    pub fn state_trace(&self, pixels: &[Vec<f32>], transform: &dyn StateTransform) -> Vec<Matrix> {
        self.state_trace_xs(&self.pixel_steps(pixels), transform)
    }

    /// Vector-input variant of [`Self::state_trace`].
    pub fn state_trace_xs(&self, xs: &[Matrix], transform: &dyn StateTransform) -> Vec<Matrix> {
        let cache = self.unroll(xs, xs[0].rows(), transform);
        (0..xs.len()).map(|t| cache.hp(t).clone()).collect()
    }

    fn pixel_steps(&self, pixels: &[Vec<f32>]) -> Vec<Matrix> {
        assert_eq!(
            self.input.width, 1,
            "pixel API requires a scalar-input model"
        );
        assert!(!pixels.is_empty(), "empty pixel sequence");
        pixels.iter().map(|step| self.input.encode(step)).collect()
    }

    /// Unrolls `xs`, `lanes` rows each, from a zero state.
    fn unroll(
        &self,
        xs: &[Matrix],
        lanes: usize,
        transform: &dyn StateTransform,
    ) -> SequenceCache<R::Step> {
        assert!(xs.iter().all(|m| m.rows() == lanes), "lane count mismatch");
        let state = CarryState::zeros(lanes, self.hidden_dim());
        self.rnn.forward_sequence(xs, &state, transform)
    }
}

impl Classifier<LstmLayer> {
    /// The recurrent layer.
    pub fn lstm(&self) -> &LstmLayer {
        &self.rnn
    }
}

/// Layer, then head (the [`Rows`] input has no parameters).
impl<R: Parameterized> Parameterized for Classifier<R> {
    fn visit_params(&mut self, visitor: &mut dyn ParamVisitor) {
        self.rnn.visit_params(visitor);
        self.head.visit_params(visitor);
    }
}

/// Tensor contract: the layer's tensors, then `linear.w`
/// (`dh × classes`) and `linear.b` (`classes`).
impl<R: Recurrent> crate::Freezable for Classifier<R> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstm::IdentityTransform;
    use crate::optim::{Adam, Optimizer};

    /// Two trivially separable "images": all-bright vs all-dark.
    fn toy_task() -> (Vec<Vec<f32>>, Vec<usize>) {
        let t = 12;
        let pixels: Vec<Vec<f32>> = (0..t).map(|_| vec![0.9f32, 0.05]).collect();
        (pixels, vec![1, 0])
    }

    #[test]
    fn eval_shapes_and_uniform_loss() {
        let mut rng = SeedableStream::new(1);
        let model = SeqClassifier::new(4, 6, &mut rng);
        let (pixels, labels) = toy_task();
        let stats = model.eval_batch(&pixels, &labels, &IdentityTransform);
        assert_eq!(stats.tokens, 2);
        assert!((stats.mean_nats - (4.0f32).ln()).abs() < 0.6);
    }

    #[test]
    fn learns_bright_vs_dark() {
        let mut rng = SeedableStream::new(2);
        let mut model = SeqClassifier::new(2, 10, &mut rng);
        let (pixels, labels) = toy_task();
        let mut opt = Adam::new(0.02);
        for _ in 0..120 {
            model.zero_grads();
            model.train_batch(&pixels, &labels, &IdentityTransform);
            opt.step(&mut model);
        }
        let stats = model.eval_batch(&pixels, &labels, &IdentityTransform);
        assert_eq!(stats.correct, 2, "failed to separate: {stats:?}");
        assert!(stats.mean_nats < 0.3);
    }

    #[test]
    fn trace_covers_all_steps() {
        let mut rng = SeedableStream::new(3);
        let model = SeqClassifier::new(3, 5, &mut rng);
        let (pixels, _) = toy_task();
        let trace = model.state_trace(&pixels, &IdentityTransform);
        assert_eq!(trace.len(), pixels.len());
        assert_eq!(trace[0].cols(), 5);
    }
}
