//! Frozen inference weights, extracted from trained `zskip-nn` models.
//!
//! Training models carry gradient buffers, caches and visitor plumbing
//! the serving path never needs. A frozen model is the runtime's own copy
//! of the parameters — plain matrices, no `Option<Matrix>` gradient slots
//! — extracted through the [`zskip_nn::Freezable`] export (stable tensor
//! names, matched exactly).
//!
//! The paper runs one idea — prune the state, skip the `Wh` rows of
//! zeroed units — through three tasks in f32 and in 8-bit, and the
//! families differ only at the ends (its Fig. 8). So there is one model
//! type, [`Frozen<E, C, H>`](Frozen), with one
//! [`FrozenModel`] impl and one
//! [`ModelSnapshot`] impl; a family is an alias:
//!
//! | family | trains as | encoder `E` | cell `C` | head `H` |
//! |---|---|---|---|---|
//! | [`FrozenCharLm`] | `CharLm` | [`OneHot`] | [`FrozenLstm`] | [`FrozenHead`] |
//! | [`FrozenGruCharLm`] | `GruCharLm` | [`OneHot`] | [`FrozenGru`] | [`FrozenHead`] |
//! | [`FrozenWordLm`] | `WordLm` | [`Embedding`] | [`FrozenLstm`] | [`FrozenHead`] |
//! | [`FrozenSeqClassifier`] | `SeqClassifier` | [`ScalarInput`] | [`FrozenLstm`] | [`FrozenHead`] |
//! | [`FrozenQuantizedCharLm`] | `CharLm`, 8-bit | [`OneHot`] | [`QuantizedLstm`](zskip_core::QuantizedLstm) | [`QuantizedHead`] |
//!
//! What each piece owns, and where the seams are:
//!
//! * **The cell owns the x-side**, not the encoder: the GRU folds its
//!   bias into the x-side before the recurrent merge, the LSTM adds it
//!   after, and the 8-bit cell's x-side is integer accumulators. A
//!   [`RecurrentCell`] therefore offers "encode these `Wx` row ids"
//!   ([`RecurrentCell::encode_rows`]) and, for f32 cells, "encode this
//!   dense plane" ([`DenseInputCell::encode_dense`]); an
//!   [`InputEncoder`] chooses which to call and owns only its own data
//!   (vocabulary bound, embedding table, staging in `scratch.embed`).
//!   A dense encoder over the 8-bit cell does not type-check.
//! * **`State`, `hidden_dim`, `cell_dim` and pruning come from the
//!   cell** (f32 cells prune after the step, the 8-bit cell inside its
//!   pointwise — see [`FrozenModel::recurrent_step`]); `Input` and `Spec`
//!   from the encoder; `output_dim` from the [`Head`].
//! * **The 8-bit head's rescale needs the cell's hidden-state
//!   quantizer**, so a head is built and loaded against its cell
//!   ([`Head::read_sections`]); the product is derived, never stored.
//! * **A snapshot stream** is the leading width scalar, then the
//!   encoder's, the cell's and the head's sections. Only the registered
//!   triples ([`SnapshotFamily`] — the five aliases) have a family tag
//!   and so a [`ModelSnapshot`] impl; every well-typed triple is a
//!   [`FrozenModel`].
//!
//! **Adding a family.** If its parts exist, it is an alias, a `freeze`
//! that takes the training model's tensors off a `TensorBag` in export
//! order, and — to persist it — a new [`ModelFamily`] tag with a
//! [`SnapshotFamily`] impl; `tests/proptests.rs` serves an unregistered
//! GRU word-LM (`Frozen<Embedding, FrozenGru, FrozenHead>`) with no
//! runtime code at all. A new cell is one [`RecurrentCell`] impl (plus
//! [`DenseInputCell`] if it takes dense input): its step must write the
//! already-pruned `scratch.h_next`, lap `Stage::RecurrentGemm` after its
//! `Wh` product, and allocate nothing in steady state. The batcher, the
//! engine and the servers do not change.

mod cells;
mod encoders;
mod families;
mod heads;

pub use cells::{FrozenGates, FrozenGru, FrozenLstm};
pub use encoders::{Embedding, OneHot, ScalarInput};
pub use families::{
    FrozenCharLm, FrozenGruCharLm, FrozenQuantizedCharLm, FrozenSeqClassifier, FrozenWordLm,
};
pub use heads::{FrozenHead, QuantizedHead};

use crate::model::{FrozenModel, HeadScratch, InputSpec, StateLanes, StateScalar, StepScratch};
use crate::snapshot::{invalid, ModelFamily, ModelSnapshot};
use std::collections::VecDeque;
use zskip_core::StatePruner;
use zskip_nn::Freezable;
use zskip_tensor::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use zskip_tensor::{Matrix, SeedableStream};

/// A frozen recurrent cell: the `Wx`/`Wh` weights, the x-side encoding
/// and one skip-aware, self-pruning step.
pub trait RecurrentCell: Clone + Send + Sync + 'static {
    /// The scalar session state is stored in between steps
    /// ([`FrozenModel::State`]).
    type State: StateScalar;

    /// Row count of `Wx` — the width of the input the cell consumes.
    fn input_dim(&self) -> usize;

    /// Hidden dimension `dh` — the row count of `Wh`.
    fn hidden_dim(&self) -> usize;

    /// Width of the per-session cell state ([`FrozenModel::cell_dim`]).
    fn cell_dim(&self) -> usize {
        self.hidden_dim()
    }

    /// The pruning threshold frozen into the cell's datapath, if any
    /// ([`FrozenModel::baked_threshold`]).
    fn baked_threshold(&self) -> Option<f32> {
        None
    }

    /// The x-side of one-hot inputs: `Wx` rows `rows`, one per lane,
    /// into `scratch.zx` — in whatever form this cell's step consumes
    /// (see [`FrozenModel::input_encode`]).
    fn encode_rows(&self, rows: &[usize], scratch: &mut StepScratch<Self::State>);

    /// One batched step, the contract of
    /// [`FrozenModel::recurrent_step`].
    fn step(
        &self,
        h: &StateLanes<Self::State>,
        c: &StateLanes<Self::State>,
        pruner: &StatePruner,
        scratch: &mut StepScratch<Self::State>,
    );

    /// Appends the cell's snapshot sections.
    fn write_sections(&self, w: &mut SnapshotWriter);

    /// Reads back what [`Self::write_sections`] wrote, bit-exactly.
    fn read_sections(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;
}

/// An f32 cell that also accepts a dense input plane.
pub trait DenseInputCell: RecurrentCell<State = f32> {
    /// The x-side of the dense `B × dx` plane staged in `scratch.embed`:
    /// the reference cell's `x·Wx` GEMM into `scratch.zx`, in the form
    /// this cell's step consumes.
    fn encode_dense(&self, scratch: &mut StepScratch<f32>);
}

/// What feeds cell `C` its x-side from one step's inputs.
pub trait InputEncoder<C: RecurrentCell>: Clone + Send + Sync + 'static {
    /// One per-step input unit ([`FrozenModel::Input`]).
    type Input: Copy + Send + Sync + std::fmt::Debug + 'static;

    /// The weight-free input-domain descriptor ([`FrozenModel::Spec`]).
    type Spec: InputSpec<Self::Input>;

    /// The input domain, detached from the weights.
    fn input_spec(&self) -> Self::Spec;

    /// How many `Wx` rows the cell must have for this encoder to feed it.
    fn wx_rows(&self) -> usize;

    /// Encodes one batch of inputs into `scratch.zx` through `cell`.
    fn encode(&self, cell: &C, inputs: &[Self::Input], scratch: &mut StepScratch<C::State>);

    /// Appends the encoder's snapshot sections (none for a weight-free
    /// encoder).
    fn write_sections(&self, _w: &mut SnapshotWriter) {}

    /// Reads back what [`Self::write_sections`] wrote. `width` is the
    /// stream's leading scalar, which the token-fed families store as
    /// their vocabulary.
    fn read_sections(r: &mut SnapshotReader<'_>, width: usize) -> Result<Self, SnapshotError>;
}

/// The classifier head over cell `C`'s pruned state.
pub trait Head<C: RecurrentCell>: Clone + Send + Sync + 'static {
    /// Width of the state the head reads (`dh`).
    fn input_dim(&self) -> usize;

    /// Width of the logits ([`FrozenModel::output_dim`]).
    fn output_dim(&self) -> usize;

    /// The contract of [`FrozenModel::head`].
    fn forward(&self, hp: &StateLanes<C::State>, scratch: &mut HeadScratch);

    /// Appends the head's snapshot sections.
    fn write_sections(&self, w: &mut SnapshotWriter);

    /// Reads back what [`Self::write_sections`] wrote and rebuilds what
    /// is derived from `cell`.
    fn read_sections(r: &mut SnapshotReader<'_>, cell: &C) -> Result<Self, SnapshotError>;
}

/// Frozen inference weights of one model: an encoder, a recurrent cell
/// and a head (see the [module docs](self) for the composition table).
#[derive(Clone, Debug)]
pub struct Frozen<E, C, H> {
    encoder: E,
    cell: C,
    head: H,
}

impl<E: InputEncoder<C>, C: RecurrentCell, H: Head<C>> Frozen<E, C, H> {
    /// Composes a model from its parts.
    ///
    /// # Panics
    ///
    /// Panics if the encoder does not feed the cell's `Wx` or the head
    /// does not read the cell's hidden width.
    pub fn new(encoder: E, cell: C, head: H) -> Self {
        Self::checked(encoder, cell, head).unwrap_or_else(|reason| panic!("{reason}"))
    }

    fn checked(encoder: E, cell: C, head: H) -> Result<Self, String> {
        if encoder.wx_rows() != cell.input_dim() {
            return Err(format!(
                "encoder feeds {} Wx rows, the cell has {}",
                encoder.wx_rows(),
                cell.input_dim()
            ));
        }
        if head.input_dim() != cell.hidden_dim() {
            return Err(format!(
                "head reads {} state units, the cell has {}",
                head.input_dim(),
                cell.hidden_dim()
            ));
        }
        Ok(Self {
            encoder,
            cell,
            head,
        })
    }
}

impl<E: InputEncoder<C>, C: RecurrentCell, H: Head<C>> FrozenModel for Frozen<E, C, H> {
    type Input = E::Input;
    type Spec = E::Spec;
    type State = C::State;

    fn hidden_dim(&self) -> usize {
        self.cell.hidden_dim()
    }

    fn cell_dim(&self) -> usize {
        self.cell.cell_dim()
    }

    fn output_dim(&self) -> usize {
        self.head.output_dim()
    }

    fn input_spec(&self) -> E::Spec {
        self.encoder.input_spec()
    }

    fn baked_threshold(&self) -> Option<f32> {
        self.cell.baked_threshold()
    }

    fn input_encode(&self, inputs: &[E::Input], scratch: &mut StepScratch<C::State>) {
        self.encoder.encode(&self.cell, inputs, scratch);
    }

    fn recurrent_step(
        &self,
        h: &StateLanes<C::State>,
        c: &StateLanes<C::State>,
        pruner: &StatePruner,
        scratch: &mut StepScratch<C::State>,
    ) {
        self.cell.step(h, c, pruner, scratch);
    }

    fn head(&self, hp: &StateLanes<C::State>, scratch: &mut HeadScratch) {
        self.head.forward(hp, scratch);
    }
}

/// The registered triples: the compositions that own a
/// [`ModelFamily`] tag and can therefore be written to, and dispatched
/// from, a snapshot.
pub trait SnapshotFamily {
    /// Which family tag this composition writes and accepts.
    const TAG: ModelFamily;
}

/// Stream layout: the leading width scalar
/// ([`ModelFamily::width_scalar`] — the head's output width), then the
/// encoder's, the cell's and the head's sections.
impl<E: InputEncoder<C>, C: RecurrentCell, H: Head<C>> ModelSnapshot for Frozen<E, C, H>
where
    Self: SnapshotFamily,
{
    const FAMILY: ModelFamily = <Self as SnapshotFamily>::TAG;

    fn write_sections(&self, w: &mut SnapshotWriter) {
        w.u64_scalar(Self::FAMILY.width_scalar(), self.head.output_dim() as u64);
        self.encoder.write_sections(w);
        self.cell.write_sections(w);
        self.head.write_sections(w);
    }

    fn read_sections(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let width_scalar = Self::FAMILY.width_scalar();
        let width = r.u64_scalar(width_scalar)? as usize;
        let encoder = E::read_sections(r, width)?;
        let cell = C::read_sections(r)?;
        let head = H::read_sections(r, &cell)?;
        if head.output_dim() != width {
            return Err(invalid(
                width_scalar,
                "head width disagrees with the stored scalar",
            ));
        }
        Self::checked(encoder, cell, head).map_err(|reason| invalid(Self::FAMILY.name(), reason))
    }
}

/// Uniform random matrix in `±1/√hidden`, shared by every family's
/// `random` bench-weight constructor so the initialization lives in one
/// place.
pub(crate) fn random_matrix(
    rows: usize,
    cols: usize,
    hidden: usize,
    rng: &mut SeedableStream,
) -> Matrix {
    let scale = (1.0 / hidden as f32).sqrt();
    Matrix::from_fn(rows, cols, |_, _| rng.uniform(-scale, scale))
}

/// Ordered tensor stream of one [`Freezable`] export, consumed by the
/// per-family freezers: tensors are taken front-to-back by **exact
/// name**, so a model that reorders or grows parameters fails loudly
/// instead of freezing garbage.
pub(crate) struct TensorBag {
    family: &'static str,
    tensors: VecDeque<(String, Vec<f32>)>,
}

impl TensorBag {
    /// Exports `model`'s parameters (see [`Freezable::export_tensors`]
    /// for why the borrow is mutable).
    pub(crate) fn export(model: &mut impl Freezable, family: &'static str) -> Self {
        Self {
            family,
            tensors: model.export_tensors().into(),
        }
    }

    /// Takes the next tensor as a `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if the next tensor's name or length disagrees.
    pub(crate) fn take_matrix(&mut self, name: &str, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.take_vec(name, rows * cols))
    }

    /// Takes the next tensor as a flat vector of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if the next tensor's name or length disagrees.
    pub(crate) fn take_vec(&mut self, name: &str, len: usize) -> Vec<f32> {
        let (got, data) = self
            .tensors
            .pop_front()
            .unwrap_or_else(|| panic!("{} export exhausted before {name}", self.family));
        assert_eq!(got, name, "unexpected parameter order in {}", self.family);
        assert_eq!(
            data.len(),
            len,
            "{}: {name} has unexpected size",
            self.family
        );
        data
    }

    /// Asserts every exported tensor was consumed.
    pub(crate) fn finish(self) {
        assert!(
            self.tensors.is_empty(),
            "{} grew parameters the runtime does not freeze: {:?}",
            self.family,
            self.tensors.iter().map(|(n, _)| n).collect::<Vec<_>>()
        );
    }
}
