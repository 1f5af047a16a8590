//! Stacked (multi-layer) LSTMs with per-layer state pruning.
//!
//! The paper evaluates single-layer models, but the accelerator's
//! comparison point (ESE) runs stacked LSTMs, and any practical adopter
//! will want depth. A [`LstmStack`] chains [`LstmLayer`]s: layer `l`'s
//! *transformed* (pruned) states are layer `l+1`'s inputs, so skipping
//! applies to every recurrent path and the inter-layer traffic is sparse
//! too — exactly how the hardware would want it.

use crate::gates::SequenceCache;
use crate::lstm::{LstmLayer, StateTransform};
use crate::models::{CarryState, Recurrent};
use crate::params::{ParamVisitor, Parameterized};
use zskip_tensor::{Matrix, SeedableStream};

/// A stack of LSTM layers sharing one [`StateTransform`].
///
/// # Example
///
/// ```
/// use zskip_nn::stack::LstmStack;
/// use zskip_nn::IdentityTransform;
/// use zskip_tensor::{Matrix, SeedableStream};
///
/// let mut rng = SeedableStream::new(0);
/// let stack = LstmStack::new(4, &[8, 6], &mut rng);
/// let xs = vec![Matrix::zeros(2, 4); 3];
/// let states = stack.zero_states(2);
/// let caches = stack.forward_sequence(&xs, &states, &IdentityTransform);
/// assert_eq!(caches.last().unwrap().last_hp().cols(), 6);
/// ```
#[derive(Clone, Debug)]
pub struct LstmStack {
    layers: Vec<LstmLayer>,
}

impl LstmStack {
    /// Creates a stack: `input` feeds the first layer; `hidden[l]` sizes
    /// layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is empty.
    pub fn new(input: usize, hidden: &[usize], rng: &mut SeedableStream) -> Self {
        assert!(!hidden.is_empty(), "stack needs at least one layer");
        let mut layers = Vec::with_capacity(hidden.len());
        let mut dx = input;
        for &dh in hidden {
            layers.push(LstmLayer::new(dx, dh, rng));
            dx = dh;
        }
        Self { layers }
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// The layers, bottom first.
    pub fn layers(&self) -> &[LstmLayer] {
        &self.layers
    }

    /// Zero initial states for every layer at batch size `b`.
    pub fn zero_states(&self, b: usize) -> Vec<CarryState> {
        self.layers
            .iter()
            .map(|l| CarryState::zeros(b, l.hidden_dim()))
            .collect()
    }

    /// Unrolled forward pass; returns one [`SequenceCache`] per layer
    /// (bottom first).
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != self.depth()` or `xs` is empty.
    pub fn forward_sequence(
        &self,
        xs: &[Matrix],
        states: &[CarryState],
        transform: &dyn StateTransform,
    ) -> Vec<SequenceCache> {
        assert_eq!(states.len(), self.depth(), "one state pair per layer");
        assert!(!xs.is_empty(), "empty sequence");
        let mut caches = Vec::with_capacity(self.depth());
        let mut layer_inputs: Vec<Matrix> = xs.to_vec();
        for (layer, state) in self.layers.iter().zip(states) {
            let cache = layer.forward_sequence(&layer_inputs, state, transform);
            layer_inputs = (0..cache.len()).map(|t| cache.hp(t).clone()).collect();
            caches.push(cache);
        }
        caches
    }

    /// Truncated BPTT through all layers. `d_top[t]` is the gradient
    /// w.r.t. the top layer's transformed output at step `t`. Gradients
    /// accumulate into every layer; returns the gradient w.r.t. the
    /// bottom-layer inputs when `need_dx`.
    ///
    /// # Panics
    ///
    /// Panics if the cache count differs from the depth.
    pub fn backward_sequence(
        &mut self,
        caches: &[SequenceCache],
        d_top: &[Matrix],
        transform: &dyn StateTransform,
        need_dx: bool,
    ) -> Option<Vec<Matrix>> {
        assert_eq!(caches.len(), self.depth(), "one cache per layer");
        let mut d_hp: Vec<Matrix> = d_top.to_vec();
        for (idx, layer) in self.layers.iter_mut().enumerate().rev() {
            let want_dx = need_dx || idx > 0;
            let grads = layer.backward_sequence(&caches[idx], &d_hp, transform, want_dx);
            if idx == 0 {
                return grads.d_xs;
            }
            d_hp = grads.d_xs.expect("input grads for lower layer");
        }
        unreachable!("loop returns at the bottom layer");
    }
}

impl Parameterized for LstmStack {
    fn visit_params(&mut self, visitor: &mut dyn ParamVisitor) {
        struct Renamed<'a> {
            idx: usize,
            inner: &'a mut dyn ParamVisitor,
        }
        impl ParamVisitor for Renamed<'_> {
            fn visit(&mut self, name: &str, p: &mut [f32], g: &mut [f32]) {
                let full = format!("stack.{}.{name}", self.idx);
                self.inner.visit(&full, p, g);
            }
        }
        for (idx, layer) in self.layers.iter_mut().enumerate() {
            let mut renamed = Renamed {
                idx,
                inner: visitor,
            };
            layer.visit_params(&mut renamed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstm::IdentityTransform;

    fn toy_stack(seed: u64) -> LstmStack {
        let mut rng = SeedableStream::new(seed);
        LstmStack::new(3, &[5, 4], &mut rng)
    }

    fn toy_inputs(t: usize, seed: u64) -> Vec<Matrix> {
        let mut rng = SeedableStream::new(seed);
        (0..t)
            .map(|_| Matrix::from_fn(2, 3, |_, _| rng.uniform(-1.0, 1.0)))
            .collect()
    }

    #[test]
    fn forward_chains_layer_dimensions() {
        let stack = toy_stack(1);
        let xs = toy_inputs(4, 2);
        let caches = stack.forward_sequence(&xs, &stack.zero_states(2), &IdentityTransform);
        assert_eq!(caches.len(), 2);
        assert_eq!(caches[0].hp(0).cols(), 5);
        assert_eq!(caches[1].hp(0).cols(), 4);
    }

    #[test]
    fn param_names_are_per_layer() {
        let mut stack = toy_stack(3);
        struct Names(Vec<String>);
        impl ParamVisitor for Names {
            fn visit(&mut self, n: &str, _p: &mut [f32], _g: &mut [f32]) {
                self.0.push(n.to_string());
            }
        }
        let mut names = Names(Vec::new());
        stack.visit_params(&mut names);
        assert!(names.0.contains(&"stack.0.lstm.wx".to_string()));
        assert!(names.0.contains(&"stack.1.lstm.wh".to_string()));
        assert_eq!(names.0.len(), 6);
    }

    #[test]
    fn stack_bptt_matches_finite_differences() {
        let mut stack = toy_stack(5);
        let xs = toy_inputs(3, 6);
        let states = stack.zero_states(2);

        let loss_of = |stack: &LstmStack| -> f64 {
            let caches = stack.forward_sequence(&xs, &states, &IdentityTransform);
            let top = caches.last().expect("layers");
            (0..top.len())
                .map(|t| top.hp(t).as_slice().iter().map(|v| *v as f64).sum::<f64>())
                .sum()
        };

        stack.zero_grads();
        let caches = stack.forward_sequence(&xs, &states, &IdentityTransform);
        let ones: Vec<Matrix> = (0..3).map(|_| Matrix::from_fn(2, 4, |_, _| 1.0)).collect();
        stack.backward_sequence(&caches, &ones, &IdentityTransform, false);

        struct Grab(Vec<(String, Vec<f32>, Vec<f32>)>);
        impl ParamVisitor for Grab {
            fn visit(&mut self, n: &str, p: &mut [f32], g: &mut [f32]) {
                self.0.push((n.into(), p.to_vec(), g.to_vec()));
            }
        }
        let mut grab = Grab(Vec::new());
        stack.visit_params(&mut grab);

        let eps = 1e-3f32;
        for (name, values, grads) in &grab.0 {
            let stride = (values.len() / 4).max(1);
            for idx in (0..values.len()).step_by(stride) {
                struct Poke<'a>(&'a str, usize, f32);
                impl ParamVisitor for Poke<'_> {
                    fn visit(&mut self, n: &str, p: &mut [f32], _g: &mut [f32]) {
                        if n == self.0 {
                            p[self.1] += self.2;
                        }
                    }
                }
                stack.visit_params(&mut Poke(name, idx, eps));
                let up = loss_of(&stack);
                stack.visit_params(&mut Poke(name, idx, -2.0 * eps));
                let down = loss_of(&stack);
                stack.visit_params(&mut Poke(name, idx, eps));
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
    fn pruning_sparsifies_interlayer_traffic() {
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
        let stack = toy_stack(7);
        let xs = toy_inputs(5, 8);
        let caches = stack.forward_sequence(&xs, &stack.zero_states(2), &Thresh(0.3));
        // Layer-1 inputs are layer-0's pruned outputs: verify sparsity
        // shows up *between* layers, not just inside the recurrence.
        let interlayer_sparsity = caches[0].hp(4).sparsity();
        assert!(interlayer_sparsity > 0.0, "no inter-layer sparsity");
    }

    #[test]
    fn single_layer_stack_equals_plain_layer() {
        let mut rng = SeedableStream::new(9);
        let stack = LstmStack::new(3, &[6], &mut rng);
        let mut rng2 = SeedableStream::new(9);
        let layer = LstmLayer::new(3, 6, &mut rng2);
        let xs = toy_inputs(3, 10);
        let caches = stack.forward_sequence(&xs, &stack.zero_states(2), &IdentityTransform);
        let cache = layer.forward_sequence(&xs, &CarryState::zeros(2, 6), &IdentityTransform);
        assert_eq!(caches[0].last_hp(), cache.last_hp());
    }
}
