//! The frozen-model abstraction the generic serving stack is built on.
//!
//! [`DynamicBatcher`](crate::DynamicBatcher), [`Engine`](crate::Engine)
//! and the `zskip-serve` front-end are generic over [`FrozenModel`]: a
//! family-specific bundle of inference weights that knows how to
//!
//! 1. **encode** a batch of per-step inputs into the x-side
//!    pre-activation ([`FrozenModel::input_encode`]),
//! 2. run one **recurrent step** whose `Wh` product honours a row skip
//!    plan ([`FrozenModel::recurrent_step`]), and
//! 3. apply the classifier **head** to a pruned state
//!    ([`FrozenModel::head`]).
//!
//! Each method must replicate the corresponding reference arithmetic
//! *operation for operation* (including the order in which the bias and
//! the recurrent product are accumulated — LSTM and GRU cells differ
//! here), so that serving a frozen model is bit-identical to evaluating
//! the reference model with the same pruner. The per-family equivalence
//! proptests in `tests/proptests.rs` enforce this.
//!
//! Families also pick their **state scalar** via
//! [`FrozenModel::State`]: the f32 families carry `f32` lanes, the
//! quantized family carries `i8` codes — the engine, the batcher and the
//! skip plan are generic over [`StateScalar`], so the same scheduler
//! serves both number systems. The one property skipping relies on is
//! shared: a zero scalar ([`StateScalar::is_zero`]) contributes nothing
//! to the recurrent product, whether the zero is a float or a code.

use zskip_core::StatePruner;
use zskip_telemetry::StageClock;
use zskip_tensor::{Matrix, SeedableStream};

/// A scalar a session's recurrent state can be stored in: `f32` lanes
/// for the float families, `i8` codes for the quantized family.
///
/// The skip machinery only needs two facts about a state scalar: what
/// zero is (fresh sessions start there) and how to recognize it (a
/// column that is zero in every lane is a `Wh` row nobody fetches).
pub trait StateScalar: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static {
    /// The additive-identity state value a fresh session starts from.
    const ZERO: Self;

    /// Whether this value is *exactly* zero — the skippable case: for
    /// `f32` the pruned `0.0`, for `i8` the code `0` (the offset
    /// encoding and the symmetric quantizer agree on it).
    fn is_zero(self) -> bool;
}

impl StateScalar for f32 {
    const ZERO: Self = 0.0;

    fn is_zero(self) -> bool {
        self == 0.0
    }
}

impl StateScalar for i8 {
    const ZERO: Self = 0;

    fn is_zero(self) -> bool {
        self == 0
    }
}

/// A batch of per-session state lanes, one lane per row (`B × width`),
/// generic over the family's [`StateScalar`] — the shape the batcher
/// packs hidden and cell states into.
///
/// For `f32` this is a plain row-major matrix (convertible to/from
/// [`Matrix`]); for `i8` it is the stored-code layout the integer
/// kernels consume directly.
#[derive(Clone, Debug, PartialEq)]
pub struct StateLanes<S> {
    rows: usize,
    cols: usize,
    data: Vec<S>,
}

impl<S: StateScalar> StateLanes<S> {
    /// Creates `rows × cols` lanes of [`StateScalar::ZERO`].
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            .expect("lane dimensions overflow usize");
        Self {
            rows,
            cols,
            data: vec![S::ZERO; len],
        }
    }

    /// Creates lanes from a generator called as `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        let mut lanes = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                lanes.data[r * cols + c] = f(r, c);
            }
        }
        lanes
    }

    /// Creates lanes that take ownership of `data` interpreted row-major.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<S>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "lane data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Number of lanes (batch rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Lane width (state units per lane).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the lanes hold no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the row-major storage (lane-by-lane — the layout the
    /// batched kernels consume).
    pub fn as_slice(&self) -> &[S] {
        &self.data
    }

    /// Mutably borrows the row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Borrows lane `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[S] {
        assert!(
            r < self.rows,
            "lane {r} out of bounds ({} lanes)",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes to `rows × cols` lanes of [`StateScalar::ZERO`], reusing
    /// the existing allocation whenever the new size fits its capacity —
    /// the entry point the engine's batch-assembly scratch goes through,
    /// so a steady-state step (constant batch shape) never reallocates.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        let len = rows
            .checked_mul(cols)
            .expect("lane dimensions overflow usize");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(len, S::ZERO);
    }

    /// [`Self::resize`] without the zero-fill: existing elements keep
    /// whatever values they held (only newly grown storage is zeroed).
    /// For buffers the caller overwrites completely before reading —
    /// the engine's batch staging lanes, the families' next-state
    /// buffers — this skips a full pass over the data on every step.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        let len = rows
            .checked_mul(cols)
            .expect("lane dimensions overflow usize");
        self.rows = rows;
        self.cols = cols;
        self.data.resize(len, S::ZERO);
    }

    /// Mutably borrows lane `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [S] {
        assert!(
            r < self.rows,
            "lane {r} out of bounds ({} lanes)",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Whether state unit `j` is zero in **every** lane — the batch-joint
    /// skip condition of the paper's Section III-D.
    pub fn column_is_jointly_zero(&self, j: usize) -> bool {
        assert!(j < self.cols, "column {j} out of bounds");
        (0..self.rows).all(|r| self.data[r * self.cols + j].is_zero())
    }

    /// Consumes the lanes and returns the row-major storage.
    pub fn into_vec(self) -> Vec<S> {
        self.data
    }
}

impl StateLanes<f32> {
    /// Clones the lanes into a [`Matrix`] (the f32 families' kernels run
    /// on matrices).
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_vec(self.rows, self.cols, self.data.clone())
    }
}

impl From<Matrix> for StateLanes<f32> {
    /// Zero-copy: takes over the matrix's row-major storage.
    fn from(m: Matrix) -> Self {
        let (rows, cols) = (m.rows(), m.cols());
        Self {
            rows,
            cols,
            data: m.into_vec(),
        }
    }
}

impl<S: StateScalar> std::ops::Index<(usize, usize)> for StateLanes<S> {
    type Output = S;

    fn index(&self, (r, c): (usize, usize)) -> &S {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl<S: StateScalar> std::ops::IndexMut<(usize, usize)> for StateLanes<S> {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut S {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

/// The skip plan for one batched recurrent step: which rows of `Wh` must
/// be fetched, derived from the zero-run offset encoding of the previous
/// step's jointly-pruned state (see
/// [`DynamicBatcher::skip_plan_into`](crate::DynamicBatcher::skip_plan_into)).
#[derive(Clone, Debug)]
pub struct SkipPlan {
    /// Stored (fetched) row indices of `Wh`, strictly increasing.
    pub active: Vec<usize>,
    /// How many of `active` are anchors forced by offset-field
    /// saturation rather than real non-zero columns.
    pub anchors: usize,
    /// Whether the sparse kernel should run (`false` = the batcher's
    /// dense-fallback policy decided skipping would not pay).
    pub use_sparse: bool,
}

impl SkipPlan {
    /// An empty always-dense plan — the state scratch plans start here
    /// before [`DynamicBatcher::skip_plan_into`](crate::DynamicBatcher::skip_plan_into)
    /// fills them each step.
    pub fn empty() -> Self {
        Self {
            active: Vec::new(),
            anchors: 0,
            use_sparse: false,
        }
    }

    /// The f32 recurrent product under this plan, written into a
    /// caller-provided matrix — the one place the skip decision is
    /// applied for the float cells. `out` is resized to
    /// `h.rows() × wh.cols()` reusing its storage.
    pub fn matmul_lanes_into(&self, h: &StateLanes<f32>, wh: &Matrix, out: &mut Matrix) {
        if self.use_sparse {
            Matrix::matmul_sparse_rows_from_into(h.as_slice(), h.rows(), wh, &self.active, out);
        } else {
            Matrix::matmul_from_rows_into(h.as_slice(), h.rows(), wh, out);
        }
    }

    /// The integer recurrent accumulators under this plan: `h.rows()`
    /// stored-code state vectors against a quantized `Wh`
    /// (`rows × gate-width`), written as `lanes × gate-width` raw `i32`
    /// accumulators into a caller-provided vector — the quantized cell's
    /// counterpart of [`SkipPlan::matmul_lanes_into`]. Bit-identical
    /// either way the decision falls: integer addition is associative
    /// and skipped codes are exact zeros.
    pub fn gemm_t_i32_into(
        &self,
        h: &StateLanes<i8>,
        wh: &zskip_tensor::QMatrix,
        out: &mut Vec<i32>,
    ) {
        if self.use_sparse {
            wh.gemm_t_i32_sparse_rows_into(h.as_slice(), h.rows(), &self.active, out);
        } else {
            wh.gemm_t_i32_into(h.as_slice(), h.rows(), out);
        }
    }
}

/// Reusable buffers for the classifier-head stage of one batched step —
/// split from [`StepScratch`] so a family's `head` can borrow its head
/// buffers mutably while the freshly produced state lanes (also living
/// in the step scratch) stay borrowed immutably.
#[derive(Clone, Debug)]
pub struct HeadScratch {
    /// Integer head accumulators (`B × output_dim`) — used only by the
    /// quantized family.
    pub acc: Vec<i32>,
    /// Head logits (`B × output_dim`) — every family's `head` output.
    pub logits: Matrix,
}

impl HeadScratch {
    /// Empty scratch; buffers grow to serving shape on first use and are
    /// reused afterwards.
    pub fn new() -> Self {
        Self {
            acc: Vec::new(),
            logits: Matrix::zeros(0, 0),
        }
    }
}

impl Default for HeadScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The reusable workspace one batched step runs in: every intermediate
/// the families produce — x-side encoding, recurrent product, gate
/// planes, next states, logits, the skip plan's active-row list — lives
/// here and is recycled step over step, so a steady-state engine step
/// performs **zero heap allocations** (asserted by the counting-allocator
/// test in `crates/runtime/tests/`).
///
/// One scratch belongs to one engine (or one bench loop); the batcher
/// threads it through [`FrozenModel::input_encode`] →
/// [`FrozenModel::recurrent_step`] → [`FrozenModel::head`]. Buffers are
/// resized (reusing capacity) to the current batch shape at each use, so
/// batches of varying width share the same scratch — only *growth*
/// beyond the high-water mark allocates.
#[derive(Clone, Debug)]
pub struct StepScratch<S> {
    /// X-side encoding (`B × gate-width`), written by
    /// [`FrozenModel::input_encode`] and consumed — typically in place —
    /// by the recurrent step.
    pub zx: Matrix,
    /// F32 recurrent product (`B × gate-width`).
    pub zh: Matrix,
    /// Gate planes for families that cannot fuse into `zx` (the GRU's
    /// `[z | r | n]` gates).
    pub gates: Matrix,
    /// Per-step input staging (`B × dx`): embedded word vectors, pixel
    /// columns — whatever a family feeds its `Wx` GEMM.
    pub embed: Matrix,
    /// Integer recurrent accumulators (`B × gate-width`) — quantized
    /// family only.
    pub acc: Vec<i32>,
    /// Next pruned hidden state (`B × dh`), the step's main output.
    pub h_next: StateLanes<S>,
    /// Next cell state (`B × cell_dim`).
    pub c_next: StateLanes<S>,
    /// The skip plan over `Wh` rows, including the reused active-row
    /// list, filled by the batcher before the recurrent step runs.
    pub plan: SkipPlan,
    /// Head-stage buffers (see [`HeadScratch`]).
    pub head: HeadScratch,
    /// Per-stage lap timer, begun by the batcher at the top of the step
    /// and lapped at each stage boundary (families lap their own
    /// recurrent GEMM). Fixed-size, so the zero-allocation contract is
    /// unaffected; disabled clocks skip even the `Instant` reads.
    pub stages: StageClock,
}

impl<S: StateScalar> StepScratch<S> {
    /// Empty scratch with stage timing enabled (subject to the
    /// `ZSKIP_STAGE_TIMING=0` process-wide veto); buffers grow to
    /// serving shape on first use and are reused afterwards.
    pub fn new() -> Self {
        Self::with_stage_timing(true)
    }

    /// Empty scratch with stage timing explicitly enabled or disabled —
    /// the knob `EngineConfig::stage_timing` and the telemetry-off bench
    /// lane reach this through.
    pub fn with_stage_timing(stage_timing: bool) -> Self {
        Self {
            zx: Matrix::zeros(0, 0),
            zh: Matrix::zeros(0, 0),
            gates: Matrix::zeros(0, 0),
            embed: Matrix::zeros(0, 0),
            acc: Vec::new(),
            h_next: StateLanes::zeros(0, 0),
            c_next: StateLanes::zeros(0, 0),
            plan: SkipPlan::empty(),
            head: HeadScratch::new(),
            stages: StageClock::new(stage_timing),
        }
    }
}

impl<S: StateScalar> Default for StepScratch<S> {
    fn default() -> Self {
        Self::new()
    }
}

/// Cheap, `Copy` description of a family's valid input domain — what
/// client-side validation and load generation need, without holding a
/// copy of the weights (a serving front-end keeps one of these per
/// server instead of an extra multi-megabyte model clone).
pub trait InputSpec<I>: Copy + Send + Sync + 'static {
    /// Whether `input` is servable (in-vocabulary token, finite pixel).
    fn validate(&self, input: &I) -> bool;

    /// Draws a uniformly random valid input.
    fn sample(&self, rng: &mut SeedableStream) -> I;
}

/// Input domain of the token-fed families: ids in `0..vocab`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TokenDomain {
    /// Vocabulary size.
    pub vocab: usize,
}

impl InputSpec<usize> for TokenDomain {
    fn validate(&self, input: &usize) -> bool {
        *input < self.vocab
    }

    fn sample(&self, rng: &mut SeedableStream) -> usize {
        rng.index(self.vocab)
    }
}

/// Input domain of the pixel-streaming classifier: any finite scalar
/// (NaN/∞ would poison the state of every lane sharing the batch's
/// skip plan downstream); samples are intensities in `[0, 1)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScalarDomain;

impl InputSpec<f32> for ScalarDomain {
    fn validate(&self, input: &f32) -> bool {
        input.is_finite()
    }

    fn sample(&self, rng: &mut SeedableStream) -> f32 {
        rng.uniform(0.0, 1.0)
    }
}

/// Frozen inference weights of one model family.
///
/// Implementations are plain data (cloneable, shareable across serving
/// shards) extracted from a trained `zskip-nn` model through the
/// [`Freezable`](zskip_nn::Freezable) export, or generated at serving
/// shape via each family's `random` constructor for benches.
pub trait FrozenModel: Clone + Send + Sync + 'static {
    /// One per-step input unit: a token id for the language models, a
    /// pixel value for the sequential classifier.
    type Input: Copy + Send + Sync + std::fmt::Debug + 'static;

    /// The family's weight-free input-domain descriptor.
    type Spec: InputSpec<Self::Input>;

    /// The scalar a session's recurrent state is stored in between
    /// steps: `f32` for the float families, `i8` codes for the
    /// quantized family (whose state lives in 8-bit storage exactly as
    /// on the simulated accelerator's DRAM).
    type State: StateScalar;

    /// Hidden dimension `dh` — the width of the pruned state and the
    /// row count of `Wh`.
    fn hidden_dim(&self) -> usize;

    /// Width of the per-session cell state (`dh` for LSTM families, `0`
    /// for the GRU, whose only memory is the pruned `h`).
    fn cell_dim(&self) -> usize {
        self.hidden_dim()
    }

    /// Width of the head output (vocabulary or class count).
    fn output_dim(&self) -> usize;

    /// The input domain, detached from the weights — serving layers keep
    /// this `Copy` descriptor instead of an extra model clone.
    fn input_spec(&self) -> Self::Spec;

    /// The pruning threshold frozen into the model's datapath, if it has
    /// one (the quantized cell prunes inside its pointwise stage, so Eq. 5
    /// is part of its weights). [`DynamicBatcher::new`](crate::DynamicBatcher::new)
    /// refuses any other threshold: it would silently serve a different
    /// model than the one frozen.
    fn baked_threshold(&self) -> Option<f32> {
        None
    }

    /// Whether `input` may enter a session queue. Rejected inputs
    /// surface as
    /// [`EngineError::InvalidInput`](crate::EngineError::InvalidInput).
    fn validate_input(&self, input: &Self::Input) -> bool {
        self.input_spec().validate(input)
    }

    /// Draws a uniformly random valid input — what load generators and
    /// benches feed a server without knowing the family.
    fn sample_input(&self, rng: &mut SeedableStream) -> Self::Input {
        self.input_spec().sample(rng)
    }

    /// Encodes one batch of inputs into the x-side contribution the
    /// recurrent step consumes, written into `scratch.zx`
    /// (`B × gate-width`, resized in place), exactly as the family's
    /// reference computes it before the recurrent contribution is
    /// merged. Families differ in what this carries: the LSTM's is the
    /// bias-free pre-activation, the GRU's already includes the bias,
    /// and the quantized family's holds raw `i32` x-side accumulators
    /// (exactly representable in `f32` — one `i8 × i8` product per
    /// element). Families with a dense `Wx` GEMM stage their input in
    /// `scratch.embed`; a steady-state call allocates nothing.
    fn input_encode(&self, inputs: &[Self::Input], scratch: &mut StepScratch<Self::State>);

    /// One batched recurrent step: consumes the x-side encoding in
    /// `scratch.zx` and the skip plan over `Wh` rows in `scratch.plan`
    /// (both placed there by the batcher), together with the previous
    /// pruned state `h` (`B × dh` lanes of [`Self::State`]) and the
    /// cell state `c` (`B × cell_dim`); writes the next
    /// **already-pruned** hidden state into `scratch.h_next` and the
    /// next cell state into `scratch.c_next`. Every intermediate lives
    /// in the scratch, so a steady-state call allocates nothing.
    ///
    /// Pruning lives here — not in the batcher — because the families
    /// disagree on where it happens: the float families threshold the
    /// raw `f32` state *after* the step, while the quantized family
    /// prunes inside its pointwise stage, on the real value *before* it
    /// is re-quantized to storage codes (`QuantizedLstm::pointwise`).
    /// Each family must apply `pruner` exactly as its reference does.
    fn recurrent_step(
        &self,
        h: &StateLanes<Self::State>,
        c: &StateLanes<Self::State>,
        pruner: &StatePruner,
        scratch: &mut StepScratch<Self::State>,
    );

    /// Classifier head on a pruned state: `B × dh` lanes →
    /// `B × output_dim` f32 logits, written into `scratch.logits`
    /// (resized in place; a steady-state call allocates nothing). `hp`
    /// is typically the step scratch's own `h_next`, which is why the
    /// head buffers live in a separate [`HeadScratch`].
    fn head(&self, hp: &StateLanes<Self::State>, scratch: &mut HeadScratch);
}
