//! Frozen recurrent cells and the shared classifier head.
//!
//! The per-family frozen models compose these: every LSTM family
//! (char-LM, word-LM, sequential classifier) shares one recurrent-step
//! implementation over [`FrozenLstm`], the GRU family uses
//! [`FrozenGru`], and all heads are a [`FrozenHead`]. Each step
//! replicates the corresponding `zskip-nn` training cell operation for
//! operation — including accumulation order — so frozen serving is
//! bit-identical to the training forward pass.

use crate::model::{StateLanes, StepScratch};
use serde::{Deserialize, Serialize};
use zskip_core::StatePruner;
use zskip_telemetry::Stage;
use zskip_tensor::{sigmoid, tanh, GateActivations, Matrix};

/// Frozen weights of one LSTM cell (gate order `[f, i, o, g]`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FrozenLstm {
    input: usize,
    hidden: usize,
    wx: Matrix,
    wh: Matrix,
    bias: Vec<f32>,
    acts: GateActivations,
}

impl FrozenLstm {
    /// Bundles LSTM weights at serving shape, with smooth gate
    /// activations.
    ///
    /// # Panics
    ///
    /// Panics if any shape disagrees with `input`/`hidden`.
    pub fn new(input: usize, hidden: usize, wx: Matrix, wh: Matrix, bias: Vec<f32>) -> Self {
        Self::with_activations(input, hidden, wx, wh, bias, GateActivations::Smooth)
    }

    /// [`Self::new`] under an explicit [`GateActivations`] contract. The
    /// tables must be the exact ones the cell trained with — freezers
    /// clone them from the training cell, never rebuild them.
    ///
    /// # Panics
    ///
    /// Panics if any shape disagrees with `input`/`hidden`.
    pub fn with_activations(
        input: usize,
        hidden: usize,
        wx: Matrix,
        wh: Matrix,
        bias: Vec<f32>,
        acts: GateActivations,
    ) -> Self {
        assert_eq!((wx.rows(), wx.cols()), (input, 4 * hidden), "Wx shape");
        assert_eq!((wh.rows(), wh.cols()), (hidden, 4 * hidden), "Wh shape");
        assert_eq!(bias.len(), 4 * hidden, "bias shape");
        Self {
            input,
            hidden,
            wx,
            wh,
            bias,
            acts,
        }
    }

    /// The gate-activation contract this cell serves under.
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

    /// Recurrent weights `Wh` (`dh × 4dh`) — the matrix the sparse kernel
    /// skips rows of.
    pub fn wh(&self) -> &Matrix {
        &self.wh
    }

    /// Bias (`4dh`).
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// One batched LSTM step in the caller's [`StepScratch`],
    /// replicating `zskip_nn::LstmCell::forward` bit-for-bit:
    /// `z = zx + h·Wh` (skip plan applied) `+ b`, gate non-linearities,
    /// then the cell/hidden update, then the family-side threshold
    /// pruning (Eq. 5) on the raw next state — the form
    /// [`FrozenModel::recurrent_step`](crate::FrozenModel::recurrent_step)
    /// requires. Shared by every LSTM family.
    ///
    /// `scratch.zx` holds the x-side pre-activation **without** bias
    /// (`B × 4dh`) and is consumed in place as the gate accumulator; the
    /// recurrent product lands in `scratch.zh`, the pruned next hidden
    /// state in `scratch.h_next`, the next cell state in
    /// `scratch.c_next`. States are `f32` lanes borrowed straight from
    /// the batch — no copy, and a steady-state call allocates nothing.
    ///
    /// The gate non-linearities follow the cell's [`GateActivations`]
    /// contract. Under `Smooth` they stay scalar `exp`-based calls —
    /// bit-pinned to training, and the f32 step's throughput floor.
    /// Under `Lut` the gate planes go through the shared tables'
    /// batched `eval_slice`/`eval_into` kernels (AVX2 gather twins,
    /// dispatch-pinned bit-equal to portable), which training evaluates
    /// element-wise — the same clamp/round/index arithmetic, so serving
    /// stays bit-identical while the pointwise stage vectorizes. The
    /// multiply/add pointwise around them runs over fused slice
    /// iterators, which the compiler vectorizes in both modes.
    pub fn recurrent_step_pruned(
        &self,
        h: &StateLanes<f32>,
        c_prev: &StateLanes<f32>,
        pruner: &StatePruner,
        scratch: &mut StepScratch<f32>,
    ) {
        let dh = self.hidden;
        let b = h.rows();
        scratch.plan.matmul_lanes_into(h, &self.wh, &mut scratch.zh);
        scratch.stages.lap(Stage::RecurrentGemm);
        scratch.zx.add_assign(&scratch.zh);
        scratch.zx.add_row_broadcast(&self.bias);

        // Gate non-linearities, gate order [f | i | o | g].
        match &self.acts {
            GateActivations::Smooth => {
                for r in 0..b {
                    let row = scratch.zx.row_mut(r);
                    for v in row.iter_mut().take(3 * dh) {
                        *v = sigmoid(*v);
                    }
                    for v in row.iter_mut().skip(3 * dh) {
                        *v = tanh(*v);
                    }
                }
            }
            GateActivations::Lut(luts) => {
                for r in 0..b {
                    let (sig_plane, tanh_plane) = scratch.zx.row_mut(r).split_at_mut(3 * dh);
                    luts.sigmoid().eval_slice(sig_plane);
                    luts.tanh().eval_slice(tanh_plane);
                }
            }
        }

        // Every element is written below — no zero-fill needed.
        scratch.c_next.resize_for_overwrite(b, dh);
        scratch.h_next.resize_for_overwrite(b, dh);
        for r in 0..b {
            let g_row = scratch.zx.row(r);
            let (f_g, rest) = g_row.split_at(dh);
            let (i_g, rest) = rest.split_at(dh);
            let (o_g, g_g) = rest.split_at(dh);
            let cp = c_prev.row(r);
            let c_row = scratch.c_next.row_mut(r);
            for (c_out, (((&f, &cpj), &i), &g)) in
                c_row.iter_mut().zip(f_g.iter().zip(cp).zip(i_g).zip(g_g))
            {
                *c_out = f * cpj + i * g;
            }
            // `c_next` and `h_next` are distinct buffers, so unlike the
            // training cell no snapshot copy is needed between the loops.
            let h_row = scratch.h_next.row_mut(r);
            match &self.acts {
                GateActivations::Smooth => {
                    for (h_out, (&o, &cj)) in h_row.iter_mut().zip(o_g.iter().zip(c_row.iter())) {
                        *h_out = o * tanh(cj);
                    }
                }
                GateActivations::Lut(luts) => {
                    // tc = lut_tanh(c) as a batched plane, then h = o·tc
                    // — operand-for-operand the training cell's `o * tc`
                    // (written out, not `*=`, to keep that order visible).
                    luts.tanh().eval_into(c_row, h_row);
                    #[allow(clippy::assign_op_pattern)]
                    for (h_out, &o) in h_row.iter_mut().zip(o_g.iter()) {
                        *h_out = o * *h_out;
                    }
                }
            }
        }
        // Same arithmetic as the training pruner's `apply` (which clones
        // then prunes in place).
        pruner.prune_slice(scratch.h_next.as_mut_slice());
    }
}

/// Frozen weights of one GRU cell (gate order `[z, r, n]`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FrozenGru {
    input: usize,
    hidden: usize,
    wx: Matrix,
    wh: Matrix,
    bias: Vec<f32>,
    acts: GateActivations,
}

impl FrozenGru {
    /// Bundles GRU weights at serving shape, with smooth gate
    /// activations.
    ///
    /// # Panics
    ///
    /// Panics if any shape disagrees with `input`/`hidden`.
    pub fn new(input: usize, hidden: usize, wx: Matrix, wh: Matrix, bias: Vec<f32>) -> Self {
        Self::with_activations(input, hidden, wx, wh, bias, GateActivations::Smooth)
    }

    /// [`Self::new`] under an explicit [`GateActivations`] contract. The
    /// tables must be the exact ones the cell trained with — freezers
    /// clone them from the training cell, never rebuild them.
    ///
    /// # Panics
    ///
    /// Panics if any shape disagrees with `input`/`hidden`.
    pub fn with_activations(
        input: usize,
        hidden: usize,
        wx: Matrix,
        wh: Matrix,
        bias: Vec<f32>,
        acts: GateActivations,
    ) -> Self {
        assert_eq!((wx.rows(), wx.cols()), (input, 3 * hidden), "Wx shape");
        assert_eq!((wh.rows(), wh.cols()), (hidden, 3 * hidden), "Wh shape");
        assert_eq!(bias.len(), 3 * hidden, "bias shape");
        Self {
            input,
            hidden,
            wx,
            wh,
            bias,
            acts,
        }
    }

    /// The gate-activation contract this cell serves under.
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

    /// Input weights `Wx` (`dx × 3dh`).
    pub fn wx(&self) -> &Matrix {
        &self.wx
    }

    /// Recurrent weights `Wh` (`dh × 3dh`).
    pub fn wh(&self) -> &Matrix {
        &self.wh
    }

    /// Bias (`3dh`).
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// One batched GRU step in the caller's [`StepScratch`], replicating
    /// `zskip_nn::GruCell::forward` bit-for-bit, with family-side
    /// threshold pruning applied to the raw next state — mirroring
    /// [`FrozenLstm::recurrent_step_pruned`].
    ///
    /// Note the family difference baked into the training cell: the bias
    /// is added to the x-side **before** the recurrent contribution is
    /// merged per gate, so `scratch.zx` must already carry it
    /// (`B × 3dh`, see the family's `input_encode`). The recurrent
    /// product lands in `scratch.zh`, the `[z | r | n]` gate planes in
    /// `scratch.gates`, the pruned next hidden state in
    /// `scratch.h_next`; the GRU carries no cell state and leaves
    /// `scratch.c_next` alone. The state is `f32` lanes borrowed
    /// straight from the batch, and a steady-state call allocates
    /// nothing. The gate non-linearities follow the cell's
    /// [`GateActivations`] contract: scalar `exp`-based calls under
    /// `Smooth`, the shared tables' batched kernels under `Lut` — both
    /// bit-pinned to the training cell; the surrounding pointwise runs
    /// over fused slice iterators.
    pub fn recurrent_step_pruned(
        &self,
        h: &StateLanes<f32>,
        pruner: &StatePruner,
        scratch: &mut StepScratch<f32>,
    ) {
        let dh = self.hidden;
        let b = h.rows();
        scratch.plan.matmul_lanes_into(h, &self.wh, &mut scratch.zh);
        scratch.stages.lap(Stage::RecurrentGemm);

        // Every gate and state element is written below — no zero-fill.
        scratch.gates.resize_for_overwrite(b, 3 * dh);
        scratch.h_next.resize_for_overwrite(b, dh);
        for r in 0..b {
            let zx_row = scratch.zx.row(r);
            let zh_row = scratch.zh.row(r);
            let hp = h.row(r);
            let g_row = scratch.gates.row_mut(r);
            match &self.acts {
                GateActivations::Smooth => {
                    // z and r gates take the plain sum of contributions.
                    for j in 0..2 * dh {
                        g_row[j] = sigmoid(zx_row[j] + zh_row[j]);
                    }
                    // n gate: reset gate scales the recurrent
                    // contribution.
                    for j in 0..dh {
                        let r_g = g_row[dh + j];
                        g_row[2 * dh + j] = tanh(zx_row[2 * dh + j] + r_g * zh_row[2 * dh + j]);
                    }
                }
                GateActivations::Lut(luts) => {
                    // Same preactivation sums, evaluated as batched
                    // planes: z|r through the sigmoid table first (the n
                    // preactivation needs the post-sigmoid reset gate),
                    // then n through the tanh table.
                    let (zr_plane, n_plane) = g_row.split_at_mut(2 * dh);
                    for (gj, (&zxj, &zhj)) in
                        zr_plane.iter_mut().zip(zx_row.iter().zip(zh_row.iter()))
                    {
                        *gj = zxj + zhj;
                    }
                    luts.sigmoid().eval_slice(zr_plane);
                    for j in 0..dh {
                        let r_g = zr_plane[dh + j];
                        n_plane[j] = zx_row[2 * dh + j] + r_g * zh_row[2 * dh + j];
                    }
                    luts.tanh().eval_slice(n_plane);
                }
            }
            let h_row = scratch.h_next.row_mut(r);
            let (z_g, rest) = g_row.split_at(dh);
            let (_, n_g) = rest.split_at(dh);
            for (h_out, ((&z, &n), &hpj)) in h_row.iter_mut().zip(z_g.iter().zip(n_g).zip(hp)) {
                *h_out = (1.0 - z) * n + z * hpj;
            }
        }
        pruner.prune_slice(scratch.h_next.as_mut_slice());
    }
}

/// Frozen classifier head: `logits = hp·W + b`, replicating
/// `zskip_nn::Linear::forward`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FrozenHead {
    w: Matrix,
    b: Vec<f32>,
}

impl FrozenHead {
    /// Bundles head weights (`W : dh × out`, `b : out`).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != w.cols()`.
    pub fn new(w: Matrix, b: Vec<f32>) -> Self {
        assert_eq!(b.len(), w.cols(), "head bias shape");
        Self { w, b }
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.w.cols()
    }

    /// Head weights (`dh × out`).
    pub fn weight(&self) -> &Matrix {
        &self.w
    }

    /// Head bias (`out`).
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    /// Applies the head to a batch of pruned states.
    pub fn forward(&self, hp: &Matrix) -> Matrix {
        let mut logits = hp.matmul(&self.w);
        logits.add_row_broadcast(&self.b);
        logits
    }

    /// [`Self::forward`] on `f32` state lanes, copy-free, writing into a
    /// caller-provided matrix — the allocation-free form the
    /// scratch-threaded step uses. `out` is resized to `B × output_dim`
    /// reusing its storage.
    pub fn forward_lanes_into(&self, hp: &StateLanes<f32>, out: &mut Matrix) {
        Matrix::matmul_from_rows_into(hp.as_slice(), hp.rows(), &self.w, out);
        out.add_row_broadcast(&self.b);
    }
}
