//! GRU cell with the same state-transform hook — the natural "does the
//! method generalize beyond LSTMs?" extension.
//!
//! The gated recurrent unit keeps a single state `h`:
//!
//! ```text
//! [z r] = σ(Wx_zr·x + Wh_zr·hp[t-1] + b_zr)
//! n     = tanh(Wx_n·x + r ⊙ (Wh_n·hp[t-1]) + b_n)
//! h[t]  = (1 - z) ⊙ n + z ⊙ hp[t-1]
//! ```
//!
//! with `hp` the transformed (pruned) state, exactly as in the LSTM path.
//! Because the GRU's update gate interpolates *towards the pruned state*,
//! pruning interacts with the recurrence more aggressively than in the
//! LSTM (whose dense cell state `c` survives pruning untouched) — the
//! ablation benches quantify this.

use crate::gates::{Gates, Layer, SequenceCache};
use crate::lstm::StateTransform;
use crate::models::{CarryState, Recurrent, SequenceGrads};
use crate::params::{ParamVisitor, Parameterized};
use zskip_tensor::{GateActivations, Matrix, SeedableStream};

/// A gated recurrent unit with gradient buffers: gate order `[z | r | n]`
/// blocked by `dh` (see [`Gates`] for what every gated cell shares).
pub type GruCell = Gates<3>;

/// Forward cache of one GRU step.
#[derive(Clone, Debug)]
pub struct GruStep {
    x: Matrix,
    hp_prev: Matrix,
    /// Post-activation `[z | r | n]` (`B × 3dh`).
    gates: Matrix,
    /// `Wh_n · hp[t-1]` before the reset gate is applied (needed in
    /// backward).
    wh_n_h: Matrix,
    h: Matrix,
}

impl GruStep {
    /// The new raw hidden state.
    pub fn h(&self) -> &Matrix {
        &self.h
    }
}

impl GruCell {
    /// Creates a Xavier-initialized GRU cell with smooth activations.
    pub fn new(input: usize, hidden: usize, rng: &mut SeedableStream) -> Self {
        Self::with_activations(input, hidden, GateActivations::Smooth, rng)
    }

    /// [`Self::new`] under an explicit [`GateActivations`] contract.
    pub fn with_activations(
        input: usize,
        hidden: usize,
        acts: GateActivations,
        rng: &mut SeedableStream,
    ) -> Self {
        Self::with_bias(input, hidden, vec![0.0; 3 * hidden], acts, rng)
    }

    /// One forward step on a batch (`x: B × dx`, `hp_prev: B × dh`).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn forward(&self, x: &Matrix, hp_prev: &Matrix) -> GruStep {
        let b = x.rows();
        assert_eq!(x.cols(), self.input, "x dim mismatch");
        assert_eq!(hp_prev.rows(), b, "hp_prev batch mismatch");
        assert_eq!(hp_prev.cols(), self.hidden, "hp_prev dim mismatch");
        let dh = self.hidden;

        let mut zx = x.matmul(&self.wx);
        zx.add_row_broadcast(&self.b);
        let zh = hp_prev.matmul(&self.wh);

        let mut gates = Matrix::zeros(b, 3 * dh);
        let mut wh_n_h = Matrix::zeros(b, dh);
        let mut h = Matrix::zeros(b, dh);
        for r in 0..b {
            let zx_row = zx.row(r);
            let zh_row = zh.row(r);
            let hp = hp_prev.row(r);
            // z and r gates take the plain sum of contributions.
            let g_row = gates.row_mut(r);
            for j in 0..2 * dh {
                g_row[j] = self.acts.sigmoid(zx_row[j] + zh_row[j]);
            }
            // n gate: reset gate scales the recurrent contribution.
            let wh_n = wh_n_h.row_mut(r);
            for j in 0..dh {
                wh_n[j] = zh_row[2 * dh + j];
            }
            let wh_n_snapshot: Vec<f32> = wh_n.to_vec();
            for j in 0..dh {
                let r_g = g_row[dh + j];
                g_row[2 * dh + j] = self.acts.tanh(zx_row[2 * dh + j] + r_g * wh_n_snapshot[j]);
            }
            let g_snapshot: Vec<f32> = g_row.to_vec();
            let h_row = h.row_mut(r);
            for j in 0..dh {
                let z_g = g_snapshot[j];
                let n_g = g_snapshot[2 * dh + j];
                h_row[j] = (1.0 - z_g) * n_g + z_g * hp[j];
            }
        }
        GruStep {
            x: x.clone(),
            hp_prev: hp_prev.clone(),
            gates,
            wh_n_h,
            h,
        }
    }

    /// One backward step: accumulates weight gradients and returns
    /// `(d_x, d_hp_prev)` given `d_h`, the gradient w.r.t. this step's raw
    /// output.
    pub fn backward(
        &mut self,
        step: &GruStep,
        d_h: &Matrix,
        need_dx: bool,
    ) -> (Option<Matrix>, Matrix) {
        let b = step.h.rows();
        let dh = self.hidden;
        assert_eq!(d_h.rows(), b, "d_h batch mismatch");
        assert_eq!(d_h.cols(), dh, "d_h dim mismatch");

        // d_zx: gradient w.r.t. the x-side pre-activations (B × 3dh);
        // d_zh: gradient w.r.t. the h-side pre-activations, which differ
        // on the n block (reset-gate scaling).
        let mut d_zx = Matrix::zeros(b, 3 * dh);
        let mut d_zh = Matrix::zeros(b, 3 * dh);
        let mut d_hp_direct = Matrix::zeros(b, dh);
        for r in 0..b {
            let g = step.gates.row(r);
            let hp = step.hp_prev.row(r);
            let wh_n = step.wh_n_h.row(r);
            let dh_row = d_h.row(r);
            let dzx = d_zx.row_mut(r);
            let dzh_full = d_zh.row_mut(r);
            let dhp = d_hp_direct.row_mut(r);
            for j in 0..dh {
                let z_g = g[j];
                let r_g = g[dh + j];
                let n_g = g[2 * dh + j];
                let d = dh_row[j];
                // h = (1-z)·n + z·hp
                let d_z = d * (hp[j] - n_g);
                let d_n = d * (1.0 - z_g);
                dhp[j] = d * z_g;
                // n = tanh(zx_n + r·wh_n)
                let d_pre_n = d_n * (1.0 - n_g * n_g);
                let d_r = d_pre_n * wh_n[j];
                // gate derivatives
                let d_pre_z = d_z * z_g * (1.0 - z_g);
                let d_pre_r = d_r * r_g * (1.0 - r_g);
                dzx[j] = d_pre_z;
                dzx[dh + j] = d_pre_r;
                dzx[2 * dh + j] = d_pre_n;
                dzh_full[j] = d_pre_z;
                dzh_full[dh + j] = d_pre_r;
                dzh_full[2 * dh + j] = d_pre_n * r_g;
            }
        }

        self.accumulate(&step.x, &step.hp_prev, &d_zx, &d_zh);

        let mut d_hp = d_zh.matmul_nt(&self.wh);
        d_hp.add_assign(&d_hp_direct);
        let d_x = if need_dx {
            Some(d_zx.matmul_nt(&self.wx))
        } else {
            None
        };
        (d_x, d_hp)
    }
}

/// A GRU unrolled over time with a [`StateTransform`] on the state path
/// (see [`Recurrent`]) — the GRU counterpart of
/// [`LstmLayer`](crate::LstmLayer).
pub type GruLayer = Layer<3>;

/// Cached activations of an unrolled GRU window.
pub type GruSequenceCache = SequenceCache<GruStep>;

impl GruSequenceCache {
    /// Raw hidden state at step `t`.
    pub fn h_raw(&self, t: usize) -> &Matrix {
        &self.steps[t].h
    }
}

/// The GRU's only state is `h`: it ignores and never writes `state.c`
/// (the default [`Recurrent::carry`]).
impl Recurrent for GruLayer {
    type Step = GruStep;

    fn with_activations(
        input: usize,
        hidden: usize,
        acts: GateActivations,
        rng: &mut SeedableStream,
    ) -> Self {
        Self {
            cell: GruCell::with_activations(input, hidden, acts, rng),
        }
    }

    fn hidden_dim(&self) -> usize {
        self.cell.hidden_dim()
    }

    fn forward_sequence(
        &self,
        xs: &[Matrix],
        state: &CarryState,
        transform: &dyn StateTransform,
    ) -> GruSequenceCache {
        assert!(!xs.is_empty(), "empty sequence");
        let mut hp_prev = transform.apply(&state.h);
        let mut steps = Vec::with_capacity(xs.len());
        let mut hp_list = Vec::with_capacity(xs.len());
        for x in xs {
            let step = self.cell.forward(x, &hp_prev);
            let hp = transform.apply(&step.h);
            hp_prev = hp.clone();
            hp_list.push(hp);
            steps.push(step);
        }
        GruSequenceCache {
            steps,
            hp: hp_list,
            h0: state.h.clone(),
        }
    }

    fn backward_sequence(
        &mut self,
        cache: &GruSequenceCache,
        d_hp: &[Matrix],
        transform: &dyn StateTransform,
        need_dx: bool,
    ) -> SequenceGrads {
        assert_eq!(d_hp.len(), cache.len(), "one output gradient per step");
        let t_len = cache.len();
        let b = cache.steps[0].h.rows();
        let dh = self.cell.hidden_dim();
        let mut d_xs = need_dx.then(|| Vec::with_capacity(t_len));
        let mut carry = Matrix::zeros(b, dh);
        for t in (0..t_len).rev() {
            let mut total = d_hp[t].clone();
            total.add_assign(&carry);
            let d_h_raw = transform.backward(&cache.steps[t].h, &total);
            let (d_x, d_hp_prev) = self.cell.backward(&cache.steps[t], &d_h_raw, need_dx);
            if let (Some(list), Some(dx)) = (d_xs.as_mut(), d_x) {
                list.push(dx);
            }
            carry = d_hp_prev;
        }
        if let Some(list) = d_xs.as_mut() {
            list.reverse();
        }
        let d_h0 = transform.backward(&cache.h0, &carry);
        SequenceGrads { d_xs, d_h0 }
    }
}

impl Parameterized for GruCell {
    fn visit_params(&mut self, visitor: &mut dyn ParamVisitor) {
        self.visit(["gru.wx", "gru.wh", "gru.b"], visitor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstm::IdentityTransform;

    fn tiny(seed: u64) -> GruCell {
        let mut rng = SeedableStream::new(seed);
        GruCell::new(3, 4, &mut rng)
    }

    #[test]
    fn forward_shapes_and_bounds() {
        let cell = tiny(1);
        let mut rng = SeedableStream::new(2);
        let x = Matrix::from_fn(2, 3, |_, _| rng.uniform(-2.0, 2.0));
        let h = Matrix::from_fn(2, 4, |_, _| rng.uniform(-1.0, 1.0));
        let step = cell.forward(&x, &h);
        assert_eq!((step.h().rows(), step.h().cols()), (2, 4));
        // h is a convex blend of n ∈ (-1,1) and hp ∈ [-1,1].
        assert!(step.h().as_slice().iter().all(|v| v.abs() <= 1.0 + 1e-6));
    }

    #[test]
    fn update_gate_one_keeps_state() {
        // With b_z very positive, z ≈ 1 and h[t] ≈ hp[t-1].
        let mut cell = tiny(3);
        struct SetZ;
        impl ParamVisitor for SetZ {
            fn visit(&mut self, n: &str, p: &mut [f32], _g: &mut [f32]) {
                if n == "gru.b" {
                    for v in p.iter_mut().take(4) {
                        *v = 30.0;
                    }
                }
            }
        }
        cell.visit_params(&mut SetZ);
        let x = Matrix::from_fn(1, 3, |_, c| c as f32 * 0.3);
        let h = Matrix::from_fn(1, 4, |_, c| 0.1 * (c as f32 + 1.0));
        let step = cell.forward(&x, &h);
        for j in 0..4 {
            assert!((step.h()[(0, j)] - h[(0, j)]).abs() < 1e-3);
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut cell = tiny(4);
        let x = Matrix::from_fn(2, 3, |r, c| ((r * 3 + c) as f32 * 0.37).sin());
        let hp = Matrix::from_fn(2, 4, |r, c| ((r + c) as f32 * 0.23).cos() * 0.5);

        let loss_of = |cell: &GruCell| -> f64 {
            let step = cell.forward(&x, &hp);
            step.h().as_slice().iter().map(|v| *v as f64).sum()
        };

        cell.zero_grads();
        let step = cell.forward(&x, &hp);
        let ones = Matrix::from_fn(2, 4, |_, _| 1.0);
        cell.backward(&step, &ones, false);

        struct Grab(Vec<(String, Vec<f32>, Vec<f32>)>);
        impl ParamVisitor for Grab {
            fn visit(&mut self, n: &str, p: &mut [f32], g: &mut [f32]) {
                self.0.push((n.into(), p.to_vec(), g.to_vec()));
            }
        }
        let mut grab = Grab(Vec::new());
        cell.visit_params(&mut grab);

        let eps = 1e-3f32;
        for (name, values, grads) in &grab.0 {
            let stride = (values.len() / 6).max(1);
            for idx in (0..values.len()).step_by(stride) {
                struct Poke<'a>(&'a str, usize, f32);
                impl ParamVisitor for Poke<'_> {
                    fn visit(&mut self, n: &str, p: &mut [f32], _g: &mut [f32]) {
                        if n == self.0 {
                            p[self.1] += self.2;
                        }
                    }
                }
                cell.visit_params(&mut Poke(name, idx, eps));
                let up = loss_of(&cell);
                cell.visit_params(&mut Poke(name, idx, -2.0 * eps));
                let down = loss_of(&cell);
                cell.visit_params(&mut Poke(name, idx, eps));
                let numeric = ((up - down) / (2.0 * eps as f64)) as f32;
                let analytic = grads[idx];
                assert!(
                    (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs()),
                    "{name}[{idx}]: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn pruned_sequence_produces_sparse_states() {
        use zskip_tensor::stats;
        let layer = GruLayer::new(3, 4, &mut SeedableStream::new(5));
        let mut rng = SeedableStream::new(6);
        let xs: Vec<Matrix> = (0..6)
            .map(|_| Matrix::from_fn(1, 3, |_, _| rng.uniform(-1.0, 1.0)))
            .collect();

        /// Minimal inline pruner (core depends on nn, not vice versa).
        struct Thresh(f32);
        impl StateTransform for Thresh {
            fn apply(&self, h: &Matrix) -> Matrix {
                let mut out = h.clone();
                for v in out.as_mut_slice() {
                    if v.abs() < self.0 {
                        *v = 0.0;
                    }
                }
                out
            }
        }
        let cache = layer.forward_sequence(&xs, &CarryState::zeros(1, 4), &Thresh(0.2));
        let last = cache.h_raw(cache.len() - 1);
        let zeros = stats::fraction_below(last.as_slice(), 1e-9);
        // The raw output h need not be sparse, but the transform sees to
        // the recurrent path; re-applying it must zero small values.
        let pruned = Thresh(0.2).apply(last);
        assert!(pruned.sparsity() >= zeros);
    }

    #[test]
    fn layer_bptt_gradients_match_finite_differences() {
        let mut rng = SeedableStream::new(11);
        let mut layer = GruLayer::new(2, 3, &mut rng);
        let xs: Vec<Matrix> = (0..4)
            .map(|t| Matrix::from_fn(2, 2, |r, c| ((t * 2 + r + c) as f32 * 0.41).sin()))
            .collect();
        let state = CarryState::zeros(2, 3);

        let loss_of = |layer: &GruLayer| -> f64 {
            let cache = layer.forward_sequence(&xs, &state, &IdentityTransform);
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
        let cache = layer.forward_sequence(&xs, &state, &IdentityTransform);
        let ones: Vec<Matrix> = (0..4).map(|_| Matrix::from_fn(2, 3, |_, _| 1.0)).collect();
        layer.backward_sequence(&cache, &ones, &IdentityTransform, false);

        struct Grab(Vec<(String, Vec<f32>, Vec<f32>)>);
        impl ParamVisitor for Grab {
            fn visit(&mut self, n: &str, p: &mut [f32], g: &mut [f32]) {
                self.0.push((n.into(), p.to_vec(), g.to_vec()));
            }
        }
        let mut grab = Grab(Vec::new());
        layer.visit_params(&mut grab);

        let eps = 1e-3f32;
        for (name, values, grads) in &grab.0 {
            let stride = (values.len() / 5).max(1);
            for idx in (0..values.len()).step_by(stride) {
                struct Poke<'a>(&'a str, usize, f32);
                impl ParamVisitor for Poke<'_> {
                    fn visit(&mut self, n: &str, p: &mut [f32], _g: &mut [f32]) {
                        if n == self.0 {
                            p[self.1] += self.2;
                        }
                    }
                }
                layer.visit_params(&mut Poke(name, idx, eps));
                let up = loss_of(&layer);
                layer.visit_params(&mut Poke(name, idx, -2.0 * eps));
                let down = loss_of(&layer);
                layer.visit_params(&mut Poke(name, idx, eps));
                let numeric = ((up - down) / (2.0 * eps as f64)) as f32;
                let analytic = grads[idx];
                assert!(
                    (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs().max(analytic.abs())),
                    "{name}[{idx}]: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn sequence_with_identity_matches_manual_unroll() {
        let layer = GruLayer::new(3, 4, &mut SeedableStream::new(7));
        let xs: Vec<Matrix> = (0..3)
            .map(|t| Matrix::from_fn(1, 3, |_, c| ((t + c) as f32 * 0.4).sin()))
            .collect();
        let state = CarryState::zeros(1, 4);
        let cache = layer.forward_sequence(&xs, &state, &IdentityTransform);
        let mut h = state.h.clone();
        for (t, x) in xs.iter().enumerate() {
            let s = layer.cell().forward(x, &h);
            h = s.h().clone();
            assert_eq!(cache.h_raw(t), &h);
        }
    }
}
