//! What the LSTM and the GRU share: the gate-weight bundle a cell trains
//! (with its gradient buffers), and the cache of an unrolled window.

use crate::init;
use crate::lstm::LstmStep;
use crate::models::Recurrent;
use crate::params::{ParamVisitor, Parameterized};
use zskip_tensor::{GateActivations, Matrix, SeedableStream};

/// Trainable weights of one gated cell with `G` gate planes: `Wx`
/// (`dx × G·dh`), `Wh` (`dh × G·dh`), the bias (`G·dh`), lazily allocated
/// gradient buffers, and the [`GateActivations`] contract the gates run
/// under — carried *by the cell*: smooth `exp`-based bodies (the
/// default), or the shared lookup tables that let the frozen serving twin
/// vectorize its pointwise stage while staying bit-identical to the
/// training forward pass. [`LstmCell`](crate::LstmCell) and
/// [`GruCell`](crate::GruCell) are this bundle at `G = 4` / `G = 3` (the
/// serving side's `FrozenGates<G>`); only their step bodies, bias
/// initialisation and tensor names differ.
#[derive(Clone, Debug)]
pub struct Gates<const G: usize> {
    pub(crate) input: usize,
    pub(crate) hidden: usize,
    pub(crate) wx: Matrix,
    pub(crate) wh: Matrix,
    pub(crate) b: Vec<f32>,
    pub(crate) acts: GateActivations,
    dwx: Option<Matrix>,
    dwh: Option<Matrix>,
    db: Option<Vec<f32>>,
}

impl<const G: usize> Gates<G> {
    /// Xavier-initialized `Wx` then `Wh` (in that order from `rng`) and
    /// the given bias.
    pub(crate) fn with_bias(
        input: usize,
        hidden: usize,
        b: Vec<f32>,
        acts: GateActivations,
        rng: &mut SeedableStream,
    ) -> Self {
        assert!(input > 0 && hidden > 0, "cell dims must be positive");
        Self {
            input,
            hidden,
            wx: init::xavier_uniform(input, G * hidden, rng),
            wh: init::xavier_uniform(hidden, G * hidden, rng),
            b,
            acts,
            dwx: None,
            dwh: None,
            db: None,
        }
    }

    /// The gate-activation contract this cell trains (and must be
    /// served) under. Freezers clone it — tables are exported, never
    /// rebuilt, so serving cannot drift from training.
    pub fn activations(&self) -> &GateActivations {
        &self.acts
    }

    /// Input dimension `dx`.
    pub fn input_dim(&self) -> usize {
        self.input
    }

    /// Hidden dimension `dh`.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// Input weights `Wx` (`dx × G·dh`).
    pub fn wx(&self) -> &Matrix {
        &self.wx
    }

    /// Recurrent weights `Wh` (`dh × G·dh`).
    pub fn wh(&self) -> &Matrix {
        &self.wh
    }

    /// Bias (`G·dh`, in the cell's gate order).
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    /// Accumulates one step's weight gradients from the gate
    /// pre-activation gradients of the x-side (`d_zx`, which the bias
    /// shares) and the h-side (`d_zh`).
    pub(crate) fn accumulate(
        &mut self,
        x: &Matrix,
        hp_prev: &Matrix,
        d_zx: &Matrix,
        d_zh: &Matrix,
    ) {
        let (i, h) = (self.input, self.hidden);
        let dwx = self.dwx.get_or_insert_with(|| Matrix::zeros(i, G * h));
        dwx.add_tgemm(1.0, x, d_zx);
        let dwh = self.dwh.get_or_insert_with(|| Matrix::zeros(h, G * h));
        dwh.add_tgemm(1.0, hp_prev, d_zh);
        let db = self.db.get_or_insert_with(|| vec![0.0; G * h]);
        for r in 0..d_zx.rows() {
            for (acc, v) in db.iter_mut().zip(d_zx.row(r)) {
                *acc += v;
            }
        }
    }

    /// Visits `Wx`, `Wh` and the bias under `names`, in that order.
    pub(crate) fn visit(&mut self, names: [&str; 3], visitor: &mut dyn ParamVisitor) {
        let (i, h) = (self.input, self.hidden);
        let dwx = self.dwx.get_or_insert_with(|| Matrix::zeros(i, G * h));
        visitor.visit(names[0], self.wx.as_mut_slice(), dwx.as_mut_slice());
        let dwh = self.dwh.get_or_insert_with(|| Matrix::zeros(h, G * h));
        visitor.visit(names[1], self.wh.as_mut_slice(), dwh.as_mut_slice());
        let db = self.db.get_or_insert_with(|| vec![0.0; G * h]);
        visitor.visit(names[2], &mut self.b, db);
    }
}

/// One gated cell unrolled over time, the shape both
/// [`LstmLayer`](crate::LstmLayer) (`G = 4`) and
/// [`GruLayer`](crate::GruLayer) (`G = 3`) share; each implements
/// [`Recurrent`] with its own step bodies.
#[derive(Clone, Debug)]
pub struct Layer<const G: usize> {
    pub(crate) cell: Gates<G>,
}

impl<const G: usize> Layer<G>
where
    Self: Recurrent,
{
    /// Creates a layer around a fresh cell with smooth activations
    /// ([`Recurrent::with_activations`] takes the contract).
    pub fn new(input: usize, hidden: usize, rng: &mut SeedableStream) -> Self {
        Self::with_activations(input, hidden, GateActivations::Smooth, rng)
    }

    /// The underlying cell.
    pub fn cell(&self) -> &Gates<G> {
        &self.cell
    }
}

impl<const G: usize> Parameterized for Layer<G>
where
    Gates<G>: Parameterized,
{
    fn visit_params(&mut self, visitor: &mut dyn ParamVisitor) {
        self.cell.visit_params(visitor);
    }
}

/// Cached activations of an unrolled window: one step record `S` per
/// step (what the cell's backward needs), the transformed hidden states
/// and the window's initial hidden state.
#[derive(Clone, Debug)]
pub struct SequenceCache<S = LstmStep> {
    pub(crate) steps: Vec<S>,
    /// Transformed hidden states `hp[t]`, one per step (`B × dh`).
    pub(crate) hp: Vec<Matrix>,
    /// Initial hidden state of the window (pre-transform).
    pub(crate) h0: Matrix,
}

impl<S> SequenceCache<S> {
    /// Transformed hidden state at step `t` — what the classifier and the
    /// next step consume.
    pub fn hp(&self, t: usize) -> &Matrix {
        &self.hp[t]
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` for an empty cache.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Final transformed hidden state (`B × dh`).
    ///
    /// # Panics
    ///
    /// Panics if the cache is empty.
    pub fn last_hp(&self) -> &Matrix {
        self.hp.last().expect("empty sequence cache")
    }
}
