//! The five served families: each an alias of [`Frozen`] plus what is
//! specific to it — `freeze` from its training model, `random` bench
//! weights, its snapshot tag.

use super::{
    Embedding, Frozen, FrozenGates, FrozenGru, FrozenHead, FrozenLstm, InputEncoder, OneHot,
    QuantizedHead, RecurrentCell, ScalarInput, SnapshotFamily, TensorBag,
};
use crate::model::TokenDomain;
use crate::snapshot::ModelFamily;
use zskip_core::QuantizedLstm;
use zskip_nn::models::{CharLm, GruCharLm, SeqClassifier, WordLm};
use zskip_nn::LstmCell;
use zskip_tensor::{GateActivations, QMatrix, SeedableStream};

impl<E: InputEncoder<C, Spec = TokenDomain>, C: RecurrentCell, H> Frozen<E, C, H> {
    /// Vocabulary size of a token-fed model.
    pub fn vocab_size(&self) -> usize {
        self.encoder.input_spec().vocab
    }
}

impl<E, H> Frozen<E, FrozenLstm, H> {
    /// The frozen LSTM cell.
    pub fn lstm(&self) -> &FrozenLstm {
        &self.cell
    }
}

impl<E, H> Frozen<E, FrozenGru, H> {
    /// The frozen GRU cell.
    pub fn gru(&self) -> &FrozenGru {
        &self.cell
    }
}

impl<E, H> Frozen<E, QuantizedLstm, H> {
    /// The embedded golden quantized cell.
    pub fn quantized(&self) -> &QuantizedLstm {
        &self.cell
    }
}

/// What the f32 families' `freeze` and `random` share once they hold
/// their encoder.
impl<E: InputEncoder<FrozenGates<G>>, const G: usize> Frozen<E, FrozenGates<G>, FrozenHead>
where
    FrozenGates<G>: RecurrentCell<State = f32>,
{
    /// Takes the cell (`{prefix}.*`) and the head (`linear.*`) off the
    /// rest of a training export. `acts` is the activation contract,
    /// cloned from the training cell — never rebuilt — so serving cannot
    /// drift from it.
    fn from_export(
        mut bag: TensorBag,
        prefix: &str,
        encoder: E,
        (hidden, output): (usize, usize),
        acts: GateActivations,
    ) -> Self {
        let cell = FrozenGates::take(&mut bag, prefix, encoder.wx_rows(), hidden, acts);
        let head = FrozenHead::take(&mut bag, hidden, output);
        bag.finish();
        Self::new(encoder, cell, head)
    }

    /// Bench weights: the cell, then the head, drawn from `rng`.
    fn random_parts(
        encoder: E,
        (hidden, output): (usize, usize),
        acts: GateActivations,
        rng: &mut SeedableStream,
    ) -> Self {
        let cell = FrozenGates::random(encoder.wx_rows(), hidden, acts, rng);
        let head = FrozenHead::random(hidden, output, rng);
        Self::new(encoder, cell, head)
    }
}

/// Frozen character-level LM: one-hot LSTM plus softmax head.
///
/// ```
/// use zskip_nn::models::CharLm;
/// use zskip_runtime::{FrozenCharLm, FrozenModel};
/// use zskip_tensor::SeedableStream;
///
/// let mut rng = SeedableStream::new(1);
/// let mut model = CharLm::new(20, 16, &mut rng);
/// let frozen = FrozenCharLm::freeze(&mut model);
/// assert_eq!(frozen.vocab_size(), 20);
/// assert_eq!(frozen.hidden_dim(), 16);
/// ```
pub type FrozenCharLm = Frozen<OneHot, FrozenLstm, FrozenHead>;

impl SnapshotFamily for FrozenCharLm {
    const TAG: ModelFamily = ModelFamily::CharLm;
}

impl FrozenCharLm {
    /// Extracts frozen weights from a trained [`CharLm`] (mutable borrow
    /// explained on [`zskip_nn::Freezable`]).
    pub fn freeze(model: &mut CharLm) -> Self {
        let (vocab, hidden) = (model.vocab_size(), model.hidden_dim());
        let acts = model.lstm().cell().activations().clone();
        let bag = TensorBag::export(model, "CharLm");
        Self::from_export(bag, "lstm", OneHot { vocab }, (hidden, vocab), acts)
    }
}

/// Frozen GRU character-level LM: a 3-gate `Wh` (`dh × 3dh`) and no cell
/// state ([`FrozenModel::cell_dim`](crate::FrozenModel::cell_dim) is 0).
///
/// ```
/// use zskip_nn::models::GruCharLm;
/// use zskip_runtime::FrozenGruCharLm;
/// use zskip_tensor::SeedableStream;
///
/// let mut rng = SeedableStream::new(1);
/// let mut model = GruCharLm::new(20, 16, &mut rng);
/// let frozen = FrozenGruCharLm::freeze(&mut model);
/// assert_eq!(frozen.vocab_size(), 20);
/// assert_eq!(frozen.gru().wh().cols(), 48);
/// ```
pub type FrozenGruCharLm = Frozen<OneHot, FrozenGru, FrozenHead>;

impl SnapshotFamily for FrozenGruCharLm {
    const TAG: ModelFamily = ModelFamily::GruCharLm;
}

impl FrozenGruCharLm {
    /// Extracts frozen weights from a trained [`GruCharLm`].
    pub fn freeze(model: &mut GruCharLm) -> Self {
        let (vocab, hidden) = (model.vocab_size(), model.hidden_dim());
        let acts = model.gru().cell().activations().clone();
        let bag = TensorBag::export(model, "GruCharLm");
        Self::from_export(bag, "gru", OneHot { vocab }, (hidden, vocab), acts)
    }
}

/// Bench weights for both one-hot f32 char-LMs.
impl<const G: usize> Frozen<OneHot, FrozenGates<G>, FrozenHead>
where
    FrozenGates<G>: RecurrentCell<State = f32>,
{
    /// Random weights at serving shape — used by benchmarks that measure
    /// kernel cost without paying for training first.
    pub fn random(vocab: usize, hidden: usize, seed: u64) -> Self {
        let rng = &mut SeedableStream::new(seed);
        Self::random_parts(
            OneHot { vocab },
            (hidden, vocab),
            GateActivations::Smooth,
            rng,
        )
    }

    /// [`Self::random`] with the shared f32 LUT activation contract —
    /// the configuration benchmarks and alloc tests exercise for the
    /// vectorized pointwise stage.
    pub fn random_lut(vocab: usize, hidden: usize, seed: u64) -> Self {
        let rng = &mut SeedableStream::new(seed);
        Self::random_parts(
            OneHot { vocab },
            (hidden, vocab),
            GateActivations::lut_f32(),
            rng,
        )
    }
}

/// Frozen word-level LM: embedding lookup into a dense-input LSTM.
/// Dropout exists only at training time; the frozen path is the
/// dropout-free `eval` forward.
///
/// ```
/// use zskip_nn::models::WordLm;
/// use zskip_runtime::FrozenWordLm;
/// use zskip_tensor::SeedableStream;
///
/// let mut rng = SeedableStream::new(1);
/// let mut model = WordLm::new(100, 16, 12, 0.5, &mut rng);
/// let frozen = FrozenWordLm::freeze(&mut model);
/// assert_eq!(frozen.vocab_size(), 100);
/// assert_eq!(frozen.lstm().wx().rows(), 16);
/// ```
pub type FrozenWordLm = Frozen<Embedding, FrozenLstm, FrozenHead>;

impl SnapshotFamily for FrozenWordLm {
    const TAG: ModelFamily = ModelFamily::WordLm;
}

impl FrozenWordLm {
    /// Extracts frozen weights from a trained [`WordLm`].
    pub fn freeze(model: &mut WordLm) -> Self {
        let (vocab, emb_dim, hidden) = (
            model.vocab_size(),
            model.embedding_dim(),
            model.hidden_dim(),
        );
        let acts = model.lstm().cell().activations().clone();
        let mut bag = TensorBag::export(model, "WordLm");
        let table = bag.take_matrix("embedding.table", vocab, emb_dim);
        Self::from_export(bag, "lstm", Embedding { table }, (hidden, vocab), acts)
    }

    /// Random weights at serving shape, for benchmarks.
    pub fn random(vocab: usize, emb_dim: usize, hidden: usize, seed: u64) -> Self {
        Self::random_with(vocab, emb_dim, hidden, seed, GateActivations::Smooth)
    }

    /// [`Self::random`] with the shared f32 LUT activation contract.
    pub fn random_lut(vocab: usize, emb_dim: usize, hidden: usize, seed: u64) -> Self {
        Self::random_with(vocab, emb_dim, hidden, seed, GateActivations::lut_f32())
    }

    fn random_with(vocab: usize, emb: usize, hidden: usize, seed: u64, a: GateActivations) -> Self {
        let mut rng = SeedableStream::new(seed);
        let table = super::random_matrix(vocab, emb, hidden, &mut rng);
        Self::random_parts(Embedding { table }, (hidden, vocab), a, &mut rng)
    }
}

/// Frozen sequential (pixel-by-pixel) classifier. The training model
/// applies its head only to the *final* state; a streaming server does
/// not know which step is final, so each step's logits are that head
/// applied to the state so far — the class prediction as if the sequence
/// ended there, bit-identical to training's head on the same prefix.
///
/// ```
/// use zskip_nn::models::SeqClassifier;
/// use zskip_runtime::{FrozenModel, FrozenSeqClassifier};
/// use zskip_tensor::SeedableStream;
///
/// let mut rng = SeedableStream::new(1);
/// let mut model = SeqClassifier::new(10, 8, &mut rng);
/// let frozen = FrozenSeqClassifier::freeze(&mut model);
/// assert_eq!(frozen.output_dim(), 10);
/// ```
pub type FrozenSeqClassifier = Frozen<ScalarInput, FrozenLstm, FrozenHead>;

impl SnapshotFamily for FrozenSeqClassifier {
    const TAG: ModelFamily = ModelFamily::SeqClassifier;
}

impl FrozenSeqClassifier {
    /// Extracts frozen weights from a trained [`SeqClassifier`].
    ///
    /// # Panics
    ///
    /// Panics if the model was built with `input_dim != 1`: streaming
    /// serving consumes one scalar pixel per step, so only the paper's
    /// pixel-scan variant can be frozen.
    pub fn freeze(model: &mut SeqClassifier) -> Self {
        assert_eq!(
            model.input_dim(),
            1,
            "streaming serving consumes one pixel per step; freeze the scalar-input model"
        );
        let (classes, hidden) = (model.class_count(), model.hidden_dim());
        let acts = model.lstm().cell().activations().clone();
        let bag = TensorBag::export(model, "SeqClassifier");
        Self::from_export(bag, "lstm", ScalarInput, (hidden, classes), acts)
    }

    /// Random weights at serving shape, for benchmarks.
    pub fn random(classes: usize, hidden: usize, seed: u64) -> Self {
        let rng = &mut SeedableStream::new(seed);
        Self::random_parts(ScalarInput, (hidden, classes), GateActivations::Smooth, rng)
    }

    /// [`Self::random`] with the shared f32 LUT activation contract.
    pub fn random_lut(classes: usize, hidden: usize, seed: u64) -> Self {
        let rng = &mut SeedableStream::new(seed);
        Self::random_parts(
            ScalarInput,
            (hidden, classes),
            GateActivations::lut_f32(),
            rng,
        )
    }
}

/// Frozen 8-bit quantized char-LM: the golden [`QuantizedLstm`] plus an
/// 8-bit head. The pruning threshold is **baked into the frozen model**;
/// an engine configured with another one is rejected at construction
/// ([`DynamicBatcher::new`](crate::DynamicBatcher::new)), because it
/// would silently serve a different model than the one frozen.
///
/// ```
/// use zskip_nn::models::CharLm;
/// use zskip_runtime::{FrozenModel, FrozenQuantizedCharLm};
/// use zskip_tensor::SeedableStream;
///
/// let mut rng = SeedableStream::new(1);
/// let mut model = CharLm::new(20, 16, &mut rng);
/// let frozen = FrozenQuantizedCharLm::freeze(&mut model, 0.2);
/// assert_eq!(frozen.vocab_size(), 20);
/// assert_eq!(frozen.baked_threshold(), Some(0.2));
/// ```
pub type FrozenQuantizedCharLm = Frozen<OneHot, QuantizedLstm, QuantizedHead>;

impl SnapshotFamily for FrozenQuantizedCharLm {
    const TAG: ModelFamily = ModelFamily::QuantizedCharLm;
}

impl FrozenQuantizedCharLm {
    /// Quantizes a trained [`CharLm`] for integer serving at pruning
    /// threshold `threshold`. The cell goes through
    /// [`QuantizedLstm::from_cell`] — the *same* constructor the
    /// accelerator-verification tests use — and the head is max-abs
    /// quantized the same way the cell weights are. (The borrow is
    /// mutable only for symmetry with the other families' `freeze`.)
    ///
    /// # Panics
    ///
    /// Panics if the model is so wide that an `i32` gate or head
    /// accumulator could overflow ([`QMatrix::check_gemm_t_acc`]).
    pub fn freeze(model: &mut CharLm, threshold: f32) -> Self {
        let cell = QuantizedLstm::from_cell(model.lstm().cell(), threshold);
        let head_w = QMatrix::from_matrix(model.head().weight());
        let head = QuantizedHead::new(head_w, model.head().bias().to_vec(), cell.h_quantizer());
        let vocab = model.vocab_size();
        Self::new(OneHot { vocab }, cell, head)
    }

    /// Random weights at serving shape, for benchmarks and determinism
    /// tests of the integer path.
    pub fn random(vocab: usize, hidden: usize, threshold: f32, seed: u64) -> Self {
        let mut rng = SeedableStream::new(seed);
        let cell = QuantizedLstm::from_cell(&LstmCell::new(vocab, hidden, &mut rng), threshold);
        let head_w = QMatrix::from_matrix(&super::random_matrix(hidden, vocab, hidden, &mut rng));
        let head = QuantizedHead::new(head_w, vec![0.0; vocab], cell.h_quantizer());
        Self::new(OneHot { vocab }, cell, head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FrozenModel, HeadScratch, StateLanes, StepScratch};
    use crate::snapshot::{write_qmatrix, ModelSnapshot};
    use crate::weights::Head;
    use zskip_nn::Linear;
    use zskip_tensor::snapshot::{SnapshotError, SnapshotWriter};
    use zskip_tensor::{Matrix, Quantizer};

    /// What every f32 `freeze` must have done: copied the training
    /// cell's `Wx`/`Wh`/bias and the head at the expected shapes, into a
    /// model that serves at those widths.
    fn assert_freeze_copied<E, const G: usize>(
        frozen: &Frozen<E, FrozenGates<G>, FrozenHead>,
        (input, hidden, output): (usize, usize, usize),
        (wx, wh, bias): (&Matrix, &Matrix, &[f32]),
        head: &Linear,
    ) where
        FrozenGates<G>: RecurrentCell<State = f32>,
        E: InputEncoder<FrozenGates<G>>,
    {
        let cell = &frozen.cell;
        assert_eq!((cell.wx().rows(), cell.wx().cols()), (input, G * hidden));
        assert_eq!((cell.wh().rows(), cell.wh().cols()), (hidden, G * hidden));
        assert_eq!((cell.wx(), cell.wh(), cell.bias()), (wx, wh, bias));
        let weight = frozen.head.weight();
        assert_eq!((weight.rows(), weight.cols()), (hidden, output));
        assert_eq!((weight, frozen.head.bias()), (head.weight(), head.bias()));
        let mut scratch = HeadScratch::new();
        frozen.head(&StateLanes::zeros(2, hidden), &mut scratch);
        assert_eq!(scratch.logits.cols(), output);
        assert_serving_shape(frozen, hidden, cell.cell_dim(), output);
    }

    fn assert_serving_shape<M: FrozenModel>(m: &M, hidden: usize, cell: usize, output: usize) {
        assert_eq!(
            (m.hidden_dim(), m.cell_dim(), m.output_dim()),
            (hidden, cell, output)
        );
        let mut rng = SeedableStream::new(2);
        for _ in 0..50 {
            assert!(m.validate_input(&m.sample_input(&mut rng)));
        }
    }

    #[test]
    fn freeze_copies_shapes_and_values() {
        let mut rng = SeedableStream::new(3);
        let mut m = CharLm::new(12, 8, &mut rng);
        let f = FrozenCharLm::freeze(&mut m);
        let cell = m.lstm().cell();
        let weights = (cell.wx(), cell.wh(), cell.bias());
        assert_freeze_copied(&f, (12, 8, 12), weights, m.head());
        assert_eq!(f.vocab_size(), 12);

        let mut m = GruCharLm::new(14, 6, &mut rng);
        let f = FrozenGruCharLm::freeze(&mut m);
        let cell = m.gru().cell();
        let weights = (cell.wx(), cell.wh(), cell.bias());
        assert_freeze_copied(&f, (14, 6, 14), weights, m.head());
        assert_eq!(f.cell_dim(), 0, "GRU sessions carry no cell state");

        let mut m = WordLm::new(30, 8, 6, 0.5, &mut rng);
        let f = FrozenWordLm::freeze(&mut m);
        let cell = m.lstm().cell();
        let weights = (cell.wx(), cell.wh(), cell.bias());
        assert_freeze_copied(&f, (8, 6, 30), weights, m.head());
        let table = &f.encoder.table;
        assert_eq!((table.rows(), table.cols(), f.vocab_size()), (30, 8, 30));

        let mut m = SeqClassifier::new(4, 6, &mut rng);
        let f = FrozenSeqClassifier::freeze(&mut m);
        let cell = m.lstm().cell();
        let weights = (cell.wx(), cell.wh(), cell.bias());
        assert_freeze_copied(&f, (1, 6, 4), weights, m.head());
    }

    #[test]
    fn quantized_freeze_embeds_the_reference_cell_exactly() {
        let mut rng = SeedableStream::new(3);
        let mut model = CharLm::new(12, 8, &mut rng);
        let frozen = FrozenQuantizedCharLm::freeze(&mut model, 0.25);
        let reference = QuantizedLstm::from_cell(model.lstm().cell(), 0.25);
        // Same constructor, same cell, same threshold ⇒ the embedded
        // golden model is the verification reference, not a re-derivation.
        assert_eq!(frozen.quantized().wh(), reference.wh());
        assert_eq!(frozen.quantized().wx(), reference.wx());
        assert_eq!(frozen.baked_threshold(), Some(0.25));
        assert_eq!((frozen.head.input_dim(), frozen.head.output_dim()), (8, 12));
        assert_serving_shape(&frozen, 8, 8, 12);
    }

    #[test]
    fn random_weights_have_serving_shape() {
        let f = FrozenCharLm::random(50, 64, 9);
        assert_eq!(f.vocab_size(), 50);
        assert_eq!((f.lstm().wh().rows(), f.lstm().wh().cols()), (64, 256));
        assert_serving_shape(&f, 64, 64, 50);
        let f = FrozenGruCharLm::random_lut(10, 8, 3);
        assert_eq!((f.gru().wh().rows(), f.gru().wh().cols()), (8, 24));
        assert_serving_shape(&f, 8, 0, 10);
        assert_serving_shape(&FrozenWordLm::random(20, 5, 8, 4), 8, 8, 20);
        assert_serving_shape(&FrozenSeqClassifier::random(3, 5, 2), 5, 5, 3);
        let f = FrozenQuantizedCharLm::random(50, 64, 0.1, 9);
        assert_eq!(f.vocab_size(), 50);
        let wh = f.quantized().wh();
        assert_eq!((wh.rows(), wh.cols()), (64, 256));
        assert_serving_shape(&f, 64, 64, 50);
    }

    #[test]
    fn input_validation_is_the_encoder_domain() {
        let f = FrozenCharLm::random(10, 4, 1);
        assert!(f.validate_input(&9));
        assert!(!f.validate_input(&10));
        let f = FrozenSeqClassifier::random(3, 5, 2);
        assert!(f.validate_input(&0.5));
        assert!(f.validate_input(&-2.0));
        assert!(!f.validate_input(&f32::NAN));
        assert!(!f.validate_input(&f32::INFINITY));
    }

    #[test]
    #[should_panic(expected = "one pixel per step")]
    fn row_input_models_cannot_be_frozen() {
        let mut rng = SeedableStream::new(8);
        let mut model = SeqClassifier::with_input_dim(4, 7, 6, &mut rng);
        let _ = FrozenSeqClassifier::freeze(&mut model);
    }

    #[test]
    #[should_panic(expected = "encoder feeds 7 Wx rows, the cell has 5")]
    fn mismatched_parts_do_not_compose() {
        let mut rng = SeedableStream::new(1);
        let cell = FrozenLstm::random(5, 4, GateActivations::Smooth, &mut rng);
        let _ = Frozen::new(
            OneHot { vocab: 7 },
            cell,
            FrozenHead::random(4, 7, &mut rng),
        );
    }

    #[test]
    fn word_lm_input_encode_matches_embedding_then_gemm() {
        let mut rng = SeedableStream::new(6);
        let mut model = WordLm::new(12, 4, 5, 0.0, &mut rng);
        let frozen = FrozenWordLm::freeze(&mut model);
        let ids = [3usize, 11, 3];
        let e = model.embedding().forward(&ids);
        let reference = e.matmul(model.lstm().cell().wx());
        let mut scratch = StepScratch::new();
        frozen.input_encode(&ids, &mut scratch);
        for (a, b) in scratch.zx.as_slice().iter().zip(reference.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn quantized_input_encode_is_the_integer_row_lookup() {
        let mut rng = SeedableStream::new(5);
        let mut model = CharLm::new(9, 6, &mut rng);
        let frozen = FrozenQuantizedCharLm::freeze(&mut model, 0.1);
        let q = frozen.quantized().clone();
        for tok in 0..9usize {
            let mut one_hot = vec![0.0f32; 9];
            one_hot[tok] = 1.0;
            let codes = q.quantize_input(&one_hot);
            let reference = q.wx().gemv_t_i32(&codes);
            let mut scratch = StepScratch::new();
            frozen.input_encode(&[tok], &mut scratch);
            for (got, want) in scratch.zx.row(0).iter().zip(&reference) {
                assert_eq!(*got as i32, *want, "tok={tok}");
                assert_eq!(got.fract(), 0.0, "accumulator not integral");
            }
        }
    }

    #[test]
    fn oversized_head_is_a_typed_load_error() {
        // A header may claim any shape its payload agrees with, and
        // `rows × 0` needs no payload: one row past the i32 bound.
        let rows = i32::MAX as usize / (127 * 128) + 1;
        let quantizer = Quantizer::from_max_abs(1.0);
        let head_w = QMatrix::from_parts(rows, 0, Vec::new(), quantizer).unwrap();
        let family = ModelFamily::QuantizedCharLm;
        let mut w = SnapshotWriter::new(family.tag(), family.name());
        w.u64_scalar("vocab", 4);
        FrozenQuantizedCharLm::random(4, 2, 0.1, 1)
            .quantized()
            .write_sections(&mut w);
        write_qmatrix(&mut w, "head.w", &head_w);
        w.f32s("head.b", &[0], &[]);
        match FrozenQuantizedCharLm::from_snapshot_bytes(&w.finish()) {
            Err(SnapshotError::Invalid { tensor, reason }) => {
                assert_eq!(tensor, "head.w.codes");
                assert!(reason.contains("i32 accumulator"), "{reason}");
            }
            other => panic!("expected a typed accumulator-bound error, got {other:?}"),
        }
    }
}
