//! LSTM cell and sequence layer with full backpropagation-through-time.
//!
//! The recurrent transition follows the paper's Eq. 1–3 with gate order
//! `[f, i, o, g]`:
//!
//! ```text
//! [f i o g] = [σ σ σ tanh](Wh·hp[t-1] + Wx·x[t] + b)     (Eq. 1 / Eq. 4)
//! c[t] = f ⊙ c[t-1] + i ⊙ g                              (Eq. 2)
//! h[t] = o ⊙ tanh(c[t])                                  (Eq. 3)
//! ```
//!
//! where `hp[t-1]` is the hidden state after an arbitrary
//! [`StateTransform`] — the identity for a dense baseline, or the
//! threshold pruner of `zskip-core` for the paper's method (Eq. 5). The
//! transform's `backward` defaults to the straight-through estimator
//! (Eq. 6): the gradient with respect to the dense state is taken equal to
//! the gradient with respect to the transformed state, which is what lets
//! values parked under the threshold keep learning.
//!
//! Weight shapes are chosen so the batched forward is a plain GEMM:
//! `Wx` is `dx × 4dh`, `Wh` is `dh × 4dh`, inputs are `B × dx` and states
//! `B × dh` (row-major, one batch lane per row).

use crate::init;
use crate::params::{ParamVisitor, Parameterized};
use serde::{Deserialize, Serialize};
use zskip_tensor::{GateActivations, Matrix, SeedableStream};

/// Transformation applied to the hidden state before it is consumed by the
/// next timestep (and, in this reproduction, by the output classifier —
/// matching the hardware, which stores the *encoded sparse* state to DRAM).
pub trait StateTransform {
    /// Forward transform of a batch of hidden states (`B × dh`).
    fn apply(&self, h: &Matrix) -> Matrix;

    /// Backward transform: gradient w.r.t. the dense state given the
    /// gradient w.r.t. the transformed state.
    ///
    /// The default is the straight-through estimator of Eq. 6:
    /// `∂L/∂h ≈ ∂L/∂hp`.
    fn backward(&self, _h_raw: &Matrix, d_transformed: &Matrix) -> Matrix {
        d_transformed.clone()
    }
}

/// The identity transform: a dense (unpruned) LSTM.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IdentityTransform;

impl StateTransform for IdentityTransform {
    fn apply(&self, h: &Matrix) -> Matrix {
        h.clone()
    }
}

/// One LSTM cell: the weights of Eq. 1 plus gradient buffers.
///
/// The gate non-linearities are a [`GateActivations`] contract carried
/// *by the cell* and serialized with it: smooth `exp`-based bodies (the
/// default), or the shared lookup tables that let the frozen serving
/// twin vectorize its pointwise stage while staying bit-identical to
/// this forward pass.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LstmCell {
    input: usize,
    hidden: usize,
    wx: Matrix,
    wh: Matrix,
    b: Vec<f32>,
    acts: GateActivations,
    #[serde(skip)]
    dwx: Option<Matrix>,
    #[serde(skip)]
    dwh: Option<Matrix>,
    #[serde(skip)]
    db: Option<Vec<f32>>,
}

/// Everything the backward pass needs about one forward step.
#[derive(Clone, Debug)]
pub struct LstmStep {
    x: Matrix,
    hp_prev: Matrix,
    c_prev: Matrix,
    /// Post-activation gates `[f | i | o | g]`, `B × 4dh`.
    gates: Matrix,
    c: Matrix,
    tc: Matrix,
    h: Matrix,
}

impl LstmStep {
    /// The raw (untransformed) hidden state produced by this step.
    pub fn h(&self) -> &Matrix {
        &self.h
    }

    /// The cell state produced by this step.
    pub fn c(&self) -> &Matrix {
        &self.c
    }

    /// Post-activation gate values `[f | i | o | g]` (`B × 4dh`).
    pub fn gates(&self) -> &Matrix {
        &self.gates
    }
}

impl LstmCell {
    /// Creates a cell with Xavier-initialized weights, a forget bias of
    /// 1.0 and smooth gate activations.
    pub fn new(input: usize, hidden: usize, rng: &mut SeedableStream) -> Self {
        Self::with_activations(input, hidden, GateActivations::Smooth, rng)
    }

    /// [`Self::new`] under an explicit [`GateActivations`] contract —
    /// pass [`GateActivations::lut_f32`] to train against the shared
    /// lookup tables the serving pointwise stage vectorizes.
    pub fn with_activations(
        input: usize,
        hidden: usize,
        acts: GateActivations,
        rng: &mut SeedableStream,
    ) -> Self {
        assert!(input > 0 && hidden > 0, "lstm dims must be positive");
        Self {
            input,
            hidden,
            wx: init::xavier_uniform(input, 4 * hidden, rng),
            wh: init::xavier_uniform(hidden, 4 * hidden, rng),
            b: init::lstm_bias(hidden, 1.0),
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

    /// Input weights `Wx` (`dx × 4dh`).
    pub fn wx(&self) -> &Matrix {
        &self.wx
    }

    /// Recurrent weights `Wh` (`dh × 4dh`).
    pub fn wh(&self) -> &Matrix {
        &self.wh
    }

    /// Bias (`4dh`, gate order `[f, i, o, g]`).
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    fn grads(&mut self) -> (&mut Matrix, &mut Matrix, &mut Vec<f32>) {
        let (i, h) = (self.input, self.hidden);
        (
            self.dwx.get_or_insert_with(|| Matrix::zeros(i, 4 * h)),
            self.dwh.get_or_insert_with(|| Matrix::zeros(h, 4 * h)),
            self.db.get_or_insert_with(|| vec![0.0; 4 * h]),
        )
    }

    /// One forward step on a batch.
    ///
    /// `x` is `B × dx`, `hp_prev` the (possibly transformed) previous hidden
    /// state `B × dh`, `c_prev` the previous cell state `B × dh`.
    ///
    /// # Panics
    ///
    /// Panics on any dimension mismatch.
    pub fn forward(&self, x: &Matrix, hp_prev: &Matrix, c_prev: &Matrix) -> LstmStep {
        let b = x.rows();
        assert_eq!(x.cols(), self.input, "x dim mismatch");
        assert_eq!(hp_prev.rows(), b, "hp_prev batch mismatch");
        assert_eq!(hp_prev.cols(), self.hidden, "hp_prev dim mismatch");
        assert_eq!(c_prev.rows(), b, "c_prev batch mismatch");
        assert_eq!(c_prev.cols(), self.hidden, "c_prev dim mismatch");

        let mut z = x.matmul(&self.wx);
        z.add_assign(&hp_prev.matmul(&self.wh));
        z.add_row_broadcast(&self.b);

        let dh = self.hidden;
        let mut gates = z;
        for r in 0..b {
            let row = gates.row_mut(r);
            for v in row.iter_mut().take(3 * dh) {
                *v = self.acts.sigmoid(*v);
            }
            for v in row.iter_mut().skip(3 * dh) {
                *v = self.acts.tanh(*v);
            }
        }

        let mut c = Matrix::zeros(b, dh);
        let mut tc = Matrix::zeros(b, dh);
        let mut h = Matrix::zeros(b, dh);
        for r in 0..b {
            let g_row = gates.row(r);
            let (f_g, rest) = g_row.split_at(dh);
            let (i_g, rest) = rest.split_at(dh);
            let (o_g, g_g) = rest.split_at(dh);
            let cp = c_prev.row(r);
            let c_row = c.row_mut(r);
            for j in 0..dh {
                c_row[j] = f_g[j] * cp[j] + i_g[j] * g_g[j];
            }
            let c_snapshot: Vec<f32> = c_row.to_vec();
            let tc_row = tc.row_mut(r);
            for j in 0..dh {
                tc_row[j] = self.acts.tanh(c_snapshot[j]);
            }
            let tc_snapshot: Vec<f32> = tc_row.to_vec();
            let h_row = h.row_mut(r);
            for j in 0..dh {
                h_row[j] = o_g[j] * tc_snapshot[j];
            }
        }

        LstmStep {
            x: x.clone(),
            hp_prev: hp_prev.clone(),
            c_prev: c_prev.clone(),
            gates,
            c,
            tc,
            h,
        }
    }

    /// One backward step.
    ///
    /// `d_h` is the total gradient w.r.t. this step's *raw* hidden state
    /// (output path plus recurrent path, already passed through the
    /// transform's backward). `d_c_in` is the gradient w.r.t. `c[t]` flowing
    /// back from step `t+1`. Accumulates weight gradients and returns
    /// `(d_x, d_hp_prev, d_c_prev)`; `d_x` is `None` unless `need_dx`.
    ///
    /// Gate derivatives use the smooth formulas on the *post-activation*
    /// values (`σ·(1−σ)`, `1−tanh²`) in every [`GateActivations`] mode:
    /// in LUT mode this is a straight-through estimator across the
    /// table's quantization (the staircase's exact derivative is zero
    /// almost everywhere, which cannot train), the same device Eq. 6
    /// already applies to the pruning threshold.
    pub fn backward(
        &mut self,
        step: &LstmStep,
        d_h: &Matrix,
        d_c_in: &Matrix,
        need_dx: bool,
    ) -> (Option<Matrix>, Matrix, Matrix) {
        let b = step.h.rows();
        let dh = self.hidden;
        assert_eq!(d_h.rows(), b, "d_h batch mismatch");
        assert_eq!(d_h.cols(), dh, "d_h dim mismatch");

        let mut d_z = Matrix::zeros(b, 4 * dh);
        let mut d_c_prev = Matrix::zeros(b, dh);
        for r in 0..b {
            let g_row = step.gates.row(r);
            let (f_g, rest) = g_row.split_at(dh);
            let (i_g, rest) = rest.split_at(dh);
            let (o_g, g_g) = rest.split_at(dh);
            let tc = step.tc.row(r);
            let cp = step.c_prev.row(r);
            let dh_row = d_h.row(r);
            let dc_in_row = d_c_in.row(r);
            let dz_row = d_z.row_mut(r);
            let (dzf, rest_z) = dz_row.split_at_mut(dh);
            let (dzi, rest_z) = rest_z.split_at_mut(dh);
            let (dzo, dzg) = rest_z.split_at_mut(dh);
            let dcp = d_c_prev.row_mut(r);
            for j in 0..dh {
                let d_o = dh_row[j] * tc[j];
                let d_c = dc_in_row[j] + dh_row[j] * o_g[j] * (1.0 - tc[j] * tc[j]);
                let d_f = d_c * cp[j];
                let d_i = d_c * g_g[j];
                let d_g = d_c * i_g[j];
                dcp[j] = d_c * f_g[j];
                dzf[j] = d_f * f_g[j] * (1.0 - f_g[j]);
                dzi[j] = d_i * i_g[j] * (1.0 - i_g[j]);
                dzo[j] = d_o * o_g[j] * (1.0 - o_g[j]);
                dzg[j] = d_g * (1.0 - g_g[j] * g_g[j]);
            }
        }

        {
            let (dwx, dwh, db) = self.grads();
            dwx.add_tgemm(1.0, &step.x, &d_z);
            dwh.add_tgemm(1.0, &step.hp_prev, &d_z);
            for r in 0..b {
                for (acc, v) in db.iter_mut().zip(d_z.row(r)) {
                    *acc += v;
                }
            }
        }

        let d_hp_prev = d_z.matmul_nt(&self.wh);
        let d_x = if need_dx {
            Some(d_z.matmul_nt(&self.wx))
        } else {
            None
        };
        (d_x, d_hp_prev, d_c_prev)
    }
}

impl Parameterized for LstmCell {
    fn visit_params(&mut self, visitor: &mut dyn ParamVisitor) {
        let (i, h) = (self.input, self.hidden);
        let dwx = self.dwx.get_or_insert_with(|| Matrix::zeros(i, 4 * h));
        visitor.visit("lstm.wx", self.wx.as_mut_slice(), dwx.as_mut_slice());
        let dwh = self.dwh.get_or_insert_with(|| Matrix::zeros(h, 4 * h));
        visitor.visit("lstm.wh", self.wh.as_mut_slice(), dwh.as_mut_slice());
        let db = self.db.get_or_insert_with(|| vec![0.0; 4 * h]);
        visitor.visit("lstm.b", &mut self.b, db);
    }
}

/// Cached activations for a whole unrolled sequence.
#[derive(Clone, Debug)]
pub struct SequenceCache {
    steps: Vec<LstmStep>,
    /// Transformed hidden states `hp[t]`, one per step (`B × dh`).
    hp: Vec<Matrix>,
    h0: Matrix,
    c0: Matrix,
}

impl SequenceCache {
    /// Transformed hidden state at step `t` — what the classifier and the
    /// next step consume.
    pub fn hp(&self, t: usize) -> &Matrix {
        &self.hp[t]
    }

    /// Raw hidden state at step `t`.
    pub fn h_raw(&self, t: usize) -> &Matrix {
        &self.steps[t].h
    }

    /// Cell state at step `t`.
    pub fn c(&self, t: usize) -> &Matrix {
        &self.steps[t].c
    }

    /// Initial hidden state of the window (pre-transform).
    pub fn h0(&self) -> &Matrix {
        &self.h0
    }

    /// Initial cell state of the window.
    pub fn c0(&self) -> &Matrix {
        &self.c0
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

    /// Final cell state (`B × dh`).
    ///
    /// # Panics
    ///
    /// Panics if the cache is empty.
    pub fn last_c(&self) -> &Matrix {
        &self.steps.last().expect("empty sequence cache").c
    }
}

/// Gradients returned by [`LstmLayer::backward_sequence`].
#[derive(Clone, Debug)]
pub struct SequenceGrads {
    /// Per-step input gradients (present when requested).
    pub d_xs: Option<Vec<Matrix>>,
    /// Gradient w.r.t. the initial hidden state.
    pub d_h0: Matrix,
    /// Gradient w.r.t. the initial cell state.
    pub d_c0: Matrix,
}

/// An LSTM unrolled over time with a [`StateTransform`] on the state path.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LstmLayer {
    cell: LstmCell,
}

impl LstmLayer {
    /// Creates a layer around a fresh [`LstmCell`].
    pub fn new(input: usize, hidden: usize, rng: &mut SeedableStream) -> Self {
        Self {
            cell: LstmCell::new(input, hidden, rng),
        }
    }

    /// [`Self::new`] with an explicit [`GateActivations`] contract.
    pub fn with_activations(
        input: usize,
        hidden: usize,
        acts: GateActivations,
        rng: &mut SeedableStream,
    ) -> Self {
        Self {
            cell: LstmCell::with_activations(input, hidden, acts, rng),
        }
    }

    /// The underlying cell.
    pub fn cell(&self) -> &LstmCell {
        &self.cell
    }

    /// Runs the unrolled forward pass.
    ///
    /// `xs[t]` is the `B × dx` input at step `t`; `h0`/`c0` are the initial
    /// states. The transform is applied to `h0` as well (the paper prunes
    /// every state entering Eq. 4).
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or shapes mismatch.
    pub fn forward_sequence(
        &self,
        xs: &[Matrix],
        h0: &Matrix,
        c0: &Matrix,
        transform: &dyn StateTransform,
    ) -> SequenceCache {
        assert!(!xs.is_empty(), "forward_sequence needs at least one step");
        let mut steps = Vec::with_capacity(xs.len());
        let mut hp_list = Vec::with_capacity(xs.len());
        let mut hp_prev = transform.apply(h0);
        let mut c_prev = c0.clone();
        for x in xs {
            let step = self.cell.forward(x, &hp_prev, &c_prev);
            let hp = transform.apply(&step.h);
            c_prev = step.c.clone();
            hp_prev = hp.clone();
            hp_list.push(hp);
            steps.push(step);
        }
        SequenceCache {
            steps,
            hp: hp_list,
            h0: h0.clone(),
            c0: c0.clone(),
        }
    }

    /// Runs truncated BPTT over a cached sequence.
    ///
    /// `d_hp[t]` is the gradient w.r.t. the *transformed* state `hp[t]`
    /// coming from the output path at step `t` (zero matrices where a step
    /// has no output loss). Gradients accumulate into the cell. Returns
    /// input/initial-state gradients.
    ///
    /// # Panics
    ///
    /// Panics if `d_hp.len() != cache.len()`.
    pub fn backward_sequence(
        &mut self,
        cache: &SequenceCache,
        d_hp: &[Matrix],
        transform: &dyn StateTransform,
        need_dx: bool,
    ) -> SequenceGrads {
        assert_eq!(d_hp.len(), cache.len(), "one output gradient per step");
        let t_len = cache.len();
        let b = cache.steps[0].h.rows();
        let dh = self.cell.hidden_dim();

        let mut d_xs = if need_dx {
            Some(Vec::with_capacity(t_len))
        } else {
            None
        };
        let mut carry_d_hp = Matrix::zeros(b, dh);
        let mut carry_d_c = Matrix::zeros(b, dh);
        for t in (0..t_len).rev() {
            let mut d_hp_total = d_hp[t].clone();
            d_hp_total.add_assign(&carry_d_hp);
            // Through the transform: STE by default.
            let d_h_raw = transform.backward(&cache.steps[t].h, &d_hp_total);
            let (d_x, d_hp_prev, d_c_prev) =
                self.cell
                    .backward(&cache.steps[t], &d_h_raw, &carry_d_c, need_dx);
            if let (Some(list), Some(dx)) = (d_xs.as_mut(), d_x) {
                list.push(dx);
            }
            carry_d_hp = d_hp_prev;
            carry_d_c = d_c_prev;
        }
        if let Some(list) = d_xs.as_mut() {
            list.reverse();
        }
        // Through the transform applied to h0.
        let d_h0 = transform.backward(&cache.h0, &carry_d_hp);
        SequenceGrads {
            d_xs,
            d_h0,
            d_c0: carry_d_c,
        }
    }
}

impl Parameterized for LstmLayer {
    fn visit_params(&mut self, visitor: &mut dyn ParamVisitor) {
        self.cell.visit_params(visitor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Parameterized;

    fn tiny_cell(seed: u64) -> LstmCell {
        let mut rng = SeedableStream::new(seed);
        LstmCell::new(3, 4, &mut rng)
    }

    #[test]
    fn forward_shapes() {
        let cell = tiny_cell(1);
        let x = Matrix::zeros(2, 3);
        let h = Matrix::zeros(2, 4);
        let c = Matrix::zeros(2, 4);
        let step = cell.forward(&x, &h, &c);
        assert_eq!(step.h().rows(), 2);
        assert_eq!(step.h().cols(), 4);
        assert_eq!(step.gates().cols(), 16);
    }

    #[test]
    fn gates_are_in_range() {
        let cell = tiny_cell(2);
        let mut rng = SeedableStream::new(9);
        let x = Matrix::from_fn(5, 3, |_, _| rng.uniform(-2.0, 2.0));
        let h = Matrix::from_fn(5, 4, |_, _| rng.uniform(-1.0, 1.0));
        let c = Matrix::from_fn(5, 4, |_, _| rng.uniform(-1.0, 1.0));
        let step = cell.forward(&x, &h, &c);
        let dh = 4;
        for r in 0..5 {
            let g = step.gates().row(r);
            for v in &g[..3 * dh] {
                assert!((0.0..=1.0).contains(v), "sigmoid out of range: {v}");
            }
            for v in &g[3 * dh..] {
                assert!((-1.0..=1.0).contains(v), "tanh out of range: {v}");
            }
        }
    }

    #[test]
    fn zero_forget_gate_erases_memory() {
        // With b_f very negative, f ≈ 0 and c[t] ≈ i ⊙ g regardless of c_prev.
        let mut cell = tiny_cell(3);
        {
            // Force forget bias very negative through the visitor.
            struct SetF;
            impl ParamVisitor for SetF {
                fn visit(&mut self, name: &str, p: &mut [f32], _g: &mut [f32]) {
                    if name == "lstm.b" {
                        for v in p.iter_mut().take(4) {
                            *v = -30.0;
                        }
                    }
                }
            }
            cell.visit_params(&mut SetF);
        }
        let x = Matrix::zeros(1, 3);
        let h = Matrix::zeros(1, 4);
        let huge_c = Matrix::from_fn(1, 4, |_, _| 100.0);
        let zero_c = Matrix::zeros(1, 4);
        let a = cell.forward(&x, &h, &huge_c);
        let b = cell.forward(&x, &h, &zero_c);
        for j in 0..4 {
            assert!((a.c()[(0, j)] - b.c()[(0, j)]).abs() < 1e-3);
        }
    }

    #[test]
    fn sequence_forward_matches_manual_steps() {
        let mut rng = SeedableStream::new(4);
        let layer = LstmLayer::new(3, 4, &mut rng);
        let xs: Vec<Matrix> = (0..3)
            .map(|t| Matrix::from_fn(2, 3, |r, c| ((t + r + c) as f32 * 0.3).sin()))
            .collect();
        let h0 = Matrix::zeros(2, 4);
        let c0 = Matrix::zeros(2, 4);
        let cache = layer.forward_sequence(&xs, &h0, &c0, &IdentityTransform);

        let mut h = h0.clone();
        let mut c = c0.clone();
        for (t, x) in xs.iter().enumerate() {
            let step = layer.cell().forward(x, &h, &c);
            h = step.h.clone();
            c = step.c.clone();
            assert_eq!(cache.hp(t), &h);
            assert_eq!(cache.c(t), &c);
        }
    }

    /// Finite-difference gradient check over a short unrolled sequence.
    #[test]
    fn bptt_gradients_match_finite_differences() {
        let mut rng = SeedableStream::new(7);
        let mut layer = LstmLayer::new(2, 3, &mut rng);
        let xs: Vec<Matrix> = (0..4)
            .map(|t| Matrix::from_fn(2, 2, |r, c| ((t * 2 + r + c) as f32 * 0.41).sin()))
            .collect();
        let h0 = Matrix::zeros(2, 3);
        let c0 = Matrix::zeros(2, 3);

        // Loss = sum of all transformed outputs (d_hp = ones).
        let loss_of = |layer: &LstmLayer| -> f64 {
            let cache = layer.forward_sequence(&xs, &h0, &c0, &IdentityTransform);
            (0..cache.len())
                .map(|t| {
                    cache
                        .hp(t)
                        .as_slice()
                        .iter()
                        .map(|v| *v as f64)
                        .sum::<f64>()
                })
                .sum()
        };

        layer.zero_grads();
        let cache = layer.forward_sequence(&xs, &h0, &c0, &IdentityTransform);
        let ones: Vec<Matrix> = (0..cache.len())
            .map(|_| Matrix::from_fn(2, 3, |_, _| 1.0))
            .collect();
        layer.backward_sequence(&cache, &ones, &IdentityTransform, false);

        // Collect analytic grads.
        struct Grab(Vec<(String, Vec<f32>, Vec<f32>)>);
        impl ParamVisitor for Grab {
            fn visit(&mut self, n: &str, p: &mut [f32], g: &mut [f32]) {
                self.0.push((n.to_string(), p.to_vec(), g.to_vec()));
            }
        }
        let mut grab = Grab(Vec::new());
        layer.visit_params(&mut grab);

        let eps = 1e-3f32;
        for (name, values, grads) in &grab.0 {
            // Check a handful of coordinates per tensor.
            let stride = (values.len() / 5).max(1);
            for idx in (0..values.len()).step_by(stride) {
                struct Poke<'a> {
                    name: &'a str,
                    idx: usize,
                    delta: f32,
                }
                impl ParamVisitor for Poke<'_> {
                    fn visit(&mut self, n: &str, p: &mut [f32], _g: &mut [f32]) {
                        if n == self.name {
                            p[self.idx] += self.delta;
                        }
                    }
                }
                layer.visit_params(&mut Poke {
                    name,
                    idx,
                    delta: eps,
                });
                let up = loss_of(&layer);
                layer.visit_params(&mut Poke {
                    name,
                    idx,
                    delta: -2.0 * eps,
                });
                let down = loss_of(&layer);
                layer.visit_params(&mut Poke {
                    name,
                    idx,
                    delta: eps,
                });
                let numeric = ((up - down) / (2.0 * eps as f64)) as f32;
                let analytic = grads[idx];
                let tol = 2e-2 * (1.0 + numeric.abs().max(analytic.abs()));
                assert!(
                    (numeric - analytic).abs() < tol,
                    "{name}[{idx}]: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn backward_returns_input_grads_when_requested() {
        let mut rng = SeedableStream::new(8);
        let mut layer = LstmLayer::new(2, 3, &mut rng);
        let xs: Vec<Matrix> = (0..2)
            .map(|_| Matrix::from_fn(1, 2, |_, c| c as f32 * 0.1 + 0.05))
            .collect();
        let h0 = Matrix::zeros(1, 3);
        let c0 = Matrix::zeros(1, 3);
        let cache = layer.forward_sequence(&xs, &h0, &c0, &IdentityTransform);
        let d_hp: Vec<Matrix> = (0..2).map(|_| Matrix::from_fn(1, 3, |_, _| 1.0)).collect();
        let grads = layer.backward_sequence(&cache, &d_hp, &IdentityTransform, true);
        let d_xs = grads.d_xs.expect("requested input grads");
        assert_eq!(d_xs.len(), 2);
        assert_eq!(d_xs[0].rows(), 1);
        assert_eq!(d_xs[0].cols(), 2);
        // Gradient should be non-trivial.
        assert!(d_xs.iter().any(|m| m.max_abs() > 0.0));
    }

    #[test]
    fn a_masking_transform_blocks_gradient_where_overridden() {
        /// A transform that zeroes the state (and, unlike STE, blocks the
        /// gradient) — checks that the hook is actually honored.
        struct Blackout;
        impl StateTransform for Blackout {
            fn apply(&self, h: &Matrix) -> Matrix {
                Matrix::zeros(h.rows(), h.cols())
            }
            fn backward(&self, _h: &Matrix, d: &Matrix) -> Matrix {
                Matrix::zeros(d.rows(), d.cols())
            }
        }
        let mut rng = SeedableStream::new(10);
        let mut layer = LstmLayer::new(2, 3, &mut rng);
        let xs = vec![Matrix::from_fn(1, 2, |_, c| 0.3 + c as f32 * 0.2); 3];
        let h0 = Matrix::zeros(1, 3);
        let c0 = Matrix::zeros(1, 3);
        let cache = layer.forward_sequence(&xs, &h0, &c0, &Blackout);
        // Every transformed state must be zero.
        for t in 0..cache.len() {
            assert_eq!(cache.hp(t).max_abs(), 0.0);
        }
        let d_hp: Vec<Matrix> = (0..3).map(|_| Matrix::from_fn(1, 3, |_, _| 1.0)).collect();
        layer.zero_grads();
        let grads = layer.backward_sequence(&cache, &d_hp, &Blackout, false);
        // Blocked gradient: nothing reaches h0.
        assert_eq!(grads.d_h0.max_abs(), 0.0);
    }
}
