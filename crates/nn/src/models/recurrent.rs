//! The recurrent layer a model is built around.

use super::CarryState;
use crate::gates::SequenceCache;
use crate::lstm::StateTransform;
use crate::params::Parameterized;
use zskip_tensor::{GateActivations, Matrix, SeedableStream};

/// A recurrent layer unrolled over a window with a [`StateTransform`] on
/// its state path: forward from a [`CarryState`], truncated BPTT back.
/// Implemented by [`LstmLayer`](crate::LstmLayer) and
/// [`GruLayer`](crate::GruLayer).
///
/// The transform is applied to the window's initial hidden state too (the
/// paper prunes every state entering Eq. 4), and the transformed states
/// are what the next step and the model's head consume.
pub trait Recurrent: Parameterized + Sized {
    /// What one forward step keeps for the backward pass.
    type Step;

    /// A fresh layer of `hidden` units over `input`-wide steps, with its
    /// gates under `acts`.
    fn with_activations(
        input: usize,
        hidden: usize,
        acts: GateActivations,
        rng: &mut SeedableStream,
    ) -> Self;

    /// Hidden dimension `dh`.
    fn hidden_dim(&self) -> usize;

    /// Unrolls the layer over `xs` (`xs[t]` is the `B × dx` input at
    /// step `t`) from `state`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or shapes mismatch.
    fn forward_sequence(
        &self,
        xs: &[Matrix],
        state: &CarryState,
        transform: &dyn StateTransform,
    ) -> SequenceCache<Self::Step>;

    /// Advances `state` to the window's final state (detached). Parts of
    /// the state the layer does not have are left untouched; by default
    /// that is everything but `h`.
    fn carry(cache: &SequenceCache<Self::Step>, state: &mut CarryState) {
        state.h = cache.last_hp().clone();
    }

    /// Truncated BPTT over a cached window. `d_hp[t]` is the gradient
    /// w.r.t. the transformed state `hp[t]` from the output path at step
    /// `t` (zero where a step has no loss); the transform's backward sits
    /// on every recurrent edge. Gradients accumulate into the layer.
    ///
    /// # Panics
    ///
    /// Panics if `d_hp.len()` differs from the window length.
    fn backward_sequence(
        &mut self,
        cache: &SequenceCache<Self::Step>,
        d_hp: &[Matrix],
        transform: &dyn StateTransform,
        need_dx: bool,
    ) -> SequenceGrads;
}

/// Gradients returned by [`Recurrent::backward_sequence`].
#[derive(Clone, Debug)]
pub struct SequenceGrads {
    /// Per-step input gradients (present when requested).
    pub d_xs: Option<Vec<Matrix>>,
    /// Gradient w.r.t. the window's initial hidden state.
    pub d_h0: Matrix,
}
