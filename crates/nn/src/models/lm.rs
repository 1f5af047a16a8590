//! The language-model shape: every step of a BPTT window is scored.

use super::{BatchStats, CarryState, Embedded, InputEncoder, OneHot, Recurrent, Tally};
use crate::dropout::{Dropout, DropoutMask};
use crate::embedding::Embedding;
use crate::gates::SequenceCache;
use crate::gru::GruLayer;
use crate::linear::Linear;
use crate::lstm::{LstmLayer, StateTransform};
use crate::params::{ParamVisitor, Parameterized};
use zskip_tensor::{GateActivations, Matrix, SeedableStream};

/// A language model: an [`InputEncoder`] over token ids, one
/// [`Recurrent`] layer and a softmax head applied to every step's
/// *transformed* state — the head reads the pruned state, as the
/// hardware, which stores the encoded sparse state, does.
///
/// The families are aliases ([`CharLm`](super::CharLm),
/// [`GruCharLm`](super::GruCharLm), [`WordLm`](super::WordLm)); the
/// encoder decides the constructor and whether training draws dropout
/// masks. Every model takes a [`StateTransform`] at each call, so the
/// same weights run dense (identity) or pruned.
#[derive(Clone, Debug)]
pub struct Lm<E, R> {
    encoder: E,
    rnn: R,
    head: Linear,
}

impl<R: Recurrent> Lm<OneHot, R> {
    /// Creates a model for `vocab` symbols with `hidden` recurrent units.
    pub fn new(vocab: usize, hidden: usize, rng: &mut SeedableStream) -> Self {
        Self::with_activations(vocab, hidden, GateActivations::Smooth, rng)
    }

    /// [`Self::new`] under an explicit [`GateActivations`] contract for the
    /// recurrent gates (the head stays plain f32 arithmetic).
    pub fn with_activations(
        vocab: usize,
        hidden: usize,
        acts: GateActivations,
        rng: &mut SeedableStream,
    ) -> Self {
        Self::assemble(OneHot { vocab }, vocab, hidden, acts, rng)
    }

    /// [`Self::train_window`]: one-hot input has no dropout to draw.
    pub fn train_batch(
        &mut self,
        inputs: &[Vec<usize>],
        targets: &[Vec<usize>],
        state: &mut CarryState,
        transform: &dyn StateTransform,
    ) -> BatchStats {
        self.train_window(inputs, targets, state, transform, None)
    }
}

impl<R: Recurrent> Lm<Embedded, R> {
    /// Creates the model: `vocab` words, `emb_dim` embedding size,
    /// `hidden` recurrent units and `drop_p` dropout on non-recurrent
    /// paths.
    pub fn new(
        vocab: usize,
        emb_dim: usize,
        hidden: usize,
        drop_p: f32,
        rng: &mut SeedableStream,
    ) -> Self {
        Self::with_activations(vocab, emb_dim, hidden, drop_p, GateActivations::Smooth, rng)
    }

    /// [`Self::new`] under an explicit [`GateActivations`] contract for the
    /// recurrent gates (embedding and head stay plain f32 arithmetic).
    pub fn with_activations(
        vocab: usize,
        emb_dim: usize,
        hidden: usize,
        drop_p: f32,
        acts: GateActivations,
        rng: &mut SeedableStream,
    ) -> Self {
        let embedding = Embedding::new(vocab, emb_dim, rng);
        let dropout = Dropout::new(drop_p);
        Self::assemble(Embedded { embedding, dropout }, vocab, hidden, acts, rng)
    }

    /// Embedding dimension (`dx` as seen by the recurrent layer).
    pub fn embedding_dim(&self) -> usize {
        self.encoder.embedding.dim()
    }

    /// The embedding table.
    pub fn embedding(&self) -> &Embedding {
        &self.encoder.embedding
    }

    /// [`Self::train_window`] with dropout active, its masks drawn from
    /// `rng`.
    pub fn train_batch(
        &mut self,
        inputs: &[Vec<usize>],
        targets: &[Vec<usize>],
        state: &mut CarryState,
        transform: &dyn StateTransform,
        rng: &mut SeedableStream,
    ) -> BatchStats {
        self.train_window(inputs, targets, state, transform, Some(rng))
    }
}

impl<E: InputEncoder<Step = [usize]>, R: Recurrent> Lm<E, R> {
    /// The layer, then the head, drawn from `rng` after the encoder.
    fn assemble(
        encoder: E,
        vocab: usize,
        hidden: usize,
        acts: GateActivations,
        rng: &mut SeedableStream,
    ) -> Self {
        let rnn = R::with_activations(encoder.width(), hidden, acts, rng);
        let head = Linear::new(hidden, vocab, rng);
        Self { encoder, rnn, head }
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
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

    /// Forward + backward over one BPTT window, accumulating gradients.
    ///
    /// `inputs[t]` / `targets[t]` hold the ids for step `t` across the
    /// batch; the loss is the per-step cross-entropy averaged over the
    /// window. `state` is advanced (detached) to the window's final
    /// state. `rng` draws the encoder's dropout masks — every input mask,
    /// then every output mask, one per step.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` and `targets` have different lengths, if they
    /// are empty, or if the encoder has dropout and `rng` is `None`.
    pub fn train_window(
        &mut self,
        inputs: &[Vec<usize>],
        targets: &[Vec<usize>],
        state: &mut CarryState,
        transform: &dyn StateTransform,
        mut rng: Option<&mut SeedableStream>,
    ) -> BatchStats {
        assert_eq!(inputs.len(), targets.len(), "T mismatch");
        let dropout = self.encoder.dropout();
        assert!(dropout.is_none() || rng.is_some(), "dropout needs an rng");
        let mut noisy = |x: Matrix| match (dropout, rng.as_deref_mut()) {
            (Some(d), Some(rng)) => {
                let (y, mask) = d.forward(&x, rng);
                (y, Some(mask))
            }
            _ => (x, None),
        };
        let route = |d: Matrix, mask: Option<&DropoutMask>| match (dropout, mask) {
            (Some(dropout), Some(mask)) => dropout.backward(&d, mask),
            _ => d,
        };

        let (xs, in_masks): (Vec<Matrix>, Vec<_>) = inputs
            .iter()
            .map(|ids| noisy(self.encoder.encode(ids)))
            .unzip();
        let cache = self.rnn.forward_sequence(&xs, state, transform);
        let inv_t = 1.0 / xs.len() as f32;
        let mut tally = Tally::default();
        let mut d_hp = Vec::with_capacity(xs.len());
        for (t, step_targets) in targets.iter().enumerate() {
            let (h, mask) = noisy(cache.hp(t).clone());
            let mut d_logits = tally.score(&self.head.forward(&h), step_targets, inv_t);
            d_logits.scale(inv_t);
            d_hp.push(route(self.head.backward(&h, &d_logits), mask.as_ref()));
        }
        let d_xs = self
            .rnn
            .backward_sequence(&cache, &d_hp, transform, E::LEARNS)
            .d_xs;
        for ((ids, d_x), mask) in inputs.iter().zip(d_xs.into_iter().flatten()).zip(&in_masks) {
            self.encoder.backward(ids, &route(d_x, mask.as_ref()));
        }
        R::carry(&cache, state);
        tally.stats()
    }

    /// Forward-only evaluation over one window (no dropout); advances
    /// `state`.
    pub fn eval_batch(
        &self,
        inputs: &[Vec<usize>],
        targets: &[Vec<usize>],
        state: &mut CarryState,
        transform: &dyn StateTransform,
    ) -> BatchStats {
        assert_eq!(inputs.len(), targets.len(), "T mismatch");
        let cache = self.unroll(inputs, state, transform);
        let inv_t = 1.0 / inputs.len() as f32;
        let mut tally = Tally::default();
        for (t, step_targets) in targets.iter().enumerate() {
            tally.score(&self.head.forward(cache.hp(t)), step_targets, inv_t);
        }
        R::carry(&cache, state);
        tally.stats()
    }

    /// Forward-only pass that returns the transformed hidden-state trace
    /// (`T` matrices of `B × dh`) — the input the sparsity analysis and the
    /// accelerator simulation consume. Advances `state`.
    pub fn state_trace(
        &self,
        inputs: &[Vec<usize>],
        state: &mut CarryState,
        transform: &dyn StateTransform,
    ) -> Vec<Matrix> {
        let cache = self.unroll(inputs, state, transform);
        R::carry(&cache, state);
        (0..inputs.len()).map(|t| cache.hp(t).clone()).collect()
    }

    fn unroll(
        &self,
        inputs: &[Vec<usize>],
        state: &CarryState,
        transform: &dyn StateTransform,
    ) -> SequenceCache<R::Step> {
        let xs: Vec<Matrix> = inputs.iter().map(|ids| self.encoder.encode(ids)).collect();
        self.rnn.forward_sequence(&xs, state, transform)
    }
}

impl<E> Lm<E, LstmLayer> {
    /// The recurrent layer (read access for analysis/quantization).
    pub fn lstm(&self) -> &LstmLayer {
        &self.rnn
    }
}

impl<E> Lm<E, GruLayer> {
    /// The recurrent layer.
    pub fn gru(&self) -> &GruLayer {
        &self.rnn
    }
}

/// Encoder, then layer, then head.
impl<E: Parameterized, R: Parameterized> Parameterized for Lm<E, R> {
    fn visit_params(&mut self, visitor: &mut dyn ParamVisitor) {
        self.encoder.visit_params(visitor);
        self.rnn.visit_params(visitor);
        self.head.visit_params(visitor);
    }
}

/// Tensor contract: the encoder's tensors (`embedding.table` for
/// [`Embedded`], none for [`OneHot`]), the layer's (`lstm.*` / `gru.*`:
/// `wx`, `wh`, `b`), then `linear.w` (`dh × vocab`) and `linear.b`.
impl<E: InputEncoder, R: Recurrent> crate::Freezable for Lm<E, R> {}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::lstm::IdentityTransform;
    use crate::models::{CharLm, GruCharLm, WordLm};
    use crate::optim::{Adam, GradClip, Optimizer, Sgd};

    /// `t` steps of `b` random ids below `vocab`, as (inputs, targets).
    pub(in crate::models) fn toy_batch(
        t: usize,
        b: usize,
        vocab: usize,
        seed: u64,
    ) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let mut rng = SeedableStream::new(seed);
        let mk = |rng: &mut SeedableStream| {
            (0..t)
                .map(|_| (0..b).map(|_| rng.index(vocab)).collect())
                .collect::<Vec<Vec<usize>>>()
        };
        (mk(&mut rng), mk(&mut rng))
    }

    /// `|loss - ln vocab|` of an untrained model on one window.
    fn gap_to_uniform<E, R>(model: &Lm<E, R>, inputs: &[Vec<usize>], targets: &[Vec<usize>]) -> f32
    where
        E: InputEncoder<Step = [usize]>,
        R: Recurrent,
    {
        let mut state = CarryState::zeros(inputs[0].len(), model.hidden_dim());
        let stats = model.eval_batch(inputs, targets, &mut state, &IdentityTransform);
        (stats.mean_nats - (model.vocab_size() as f32).ln()).abs()
    }

    #[test]
    fn loss_starts_near_uniform() {
        let (inputs, targets) = toy_batch(4, 3, 10, 2);
        let char_lm = CharLm::new(10, 12, &mut SeedableStream::new(1));
        assert!(gap_to_uniform(&char_lm, &inputs, &targets) < 0.5);

        let inputs = [vec![0usize, 1], vec![2, 3]];
        let targets = [vec![4usize, 5], vec![6, 7]];
        let gru = GruCharLm::new(10, 12, &mut SeedableStream::new(1));
        assert!(gap_to_uniform(&gru, &inputs, &targets) < 0.5);
        let word = WordLm::new(50, 8, 10, 0.5, &mut SeedableStream::new(1));
        assert!(gap_to_uniform(&word, &inputs, &targets) < 0.5);
    }

    /// Trains on a fixed window (targets = inputs) from a zero state each
    /// iteration; returns the first and the last loss.
    fn first_and_last_loss<E, R>(
        model: &mut Lm<E, R>,
        inputs: &[Vec<usize>],
        opt: &mut dyn Optimizer,
        clip: Option<GradClip>,
        iters: usize,
    ) -> (f32, f32)
    where
        E: InputEncoder<Step = [usize]>,
        R: Recurrent,
    {
        let mut drop_rng = SeedableStream::new(3);
        let mut losses = Vec::with_capacity(iters);
        for _ in 0..iters {
            let mut state = CarryState::zeros(inputs[0].len(), model.hidden_dim());
            model.zero_grads();
            let rng = Some(&mut drop_rng);
            let stats = model.train_window(inputs, inputs, &mut state, &IdentityTransform, rng);
            if let Some(clip) = clip {
                clip.apply(model);
            }
            opt.step(model);
            losses.push(stats.mean_nats);
        }
        (losses[0], losses[iters - 1])
    }

    #[test]
    fn training_learns_fixed_pattern() {
        let chars: Vec<Vec<usize>> = (0..5).map(|t| vec![t % 6, (t + 1) % 6]).collect();
        let mut char_lm = CharLm::new(6, 24, &mut SeedableStream::new(3));
        let (first, last) =
            first_and_last_loss(&mut char_lm, &chars, &mut Adam::new(0.02), None, 60);
        assert!(last < first * 0.5, "char: first {first} last {last}");

        let mut gru = GruCharLm::new(6, 24, &mut SeedableStream::new(2));
        let (first, last) = first_and_last_loss(&mut gru, &chars, &mut Adam::new(0.02), None, 80);
        assert!(last < first * 0.5, "gru: first {first} last {last}");

        let words: Vec<Vec<usize>> = (0..6).map(|t| vec![t % 12, (t + 3) % 12]).collect();
        let mut word = WordLm::new(12, 8, 16, 0.0, &mut SeedableStream::new(2));
        let clip = Some(GradClip::new(5.0));
        let (first, last) = first_and_last_loss(&mut word, &words, &mut Sgd::new(0.5), clip, 80);
        assert!(last < first * 0.6, "word: first {first} last {last}");
    }
}
