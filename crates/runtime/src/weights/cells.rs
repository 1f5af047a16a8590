//! The frozen recurrent cells: the shared gate-weight bundle, the LSTM
//! and GRU step bodies over it, and the 8-bit
//! [`zskip_core::QuantizedLstm`] as a served cell.
//!
//! Each step replicates the corresponding reference cell operation for
//! operation — including accumulation order and where the bias joins —
//! so frozen serving is bit-identical to the training forward pass
//! (f32 cells) and to the accelerator's golden model (i8 cell).

use super::{DenseInputCell, RecurrentCell, TensorBag};
use crate::model::{StateLanes, StepScratch};
use crate::snapshot::{self, invalid};
use zskip_core::{QuantizedLstm, StatePruner};
use zskip_telemetry::Stage;
use zskip_tensor::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use zskip_tensor::{sigmoid, tanh, GateActivations, GateLuts, Matrix, SeedableStream};

/// Frozen weights of one gated f32 cell with `G` gate planes: `Wx`
/// (`dx × G·dh`), `Wh` (`dh × G·dh` — the matrix the sparse kernel skips
/// rows of), the bias (`G·dh`) and the [`GateActivations`] contract the
/// cell trained with. [`FrozenLstm`] and [`FrozenGru`] are this bundle
/// at `G = 4` / `G = 3`; only their step bodies differ.
#[derive(Clone, Debug)]
pub struct FrozenGates<const G: usize> {
    wx: Matrix,
    wh: Matrix,
    bias: Vec<f32>,
    acts: GateActivations,
}

/// Frozen weights of one LSTM cell (gate order `[f, i, o, g]`).
pub type FrozenLstm = FrozenGates<4>;

/// Frozen weights of one GRU cell (gate order `[z, r, n]`); its only
/// memory is the pruned hidden state, so sessions carry no cell state.
pub type FrozenGru = FrozenGates<3>;

impl<const G: usize> FrozenGates<G> {
    /// Bundles gate weights at serving shape. The tables in `acts` must
    /// be the exact ones the cell trained with — freezers clone them
    /// from the training cell, never rebuild them.
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree (`dx`, `dh` are the row counts of
    /// `wx`, `wh`).
    pub fn with_activations(wx: Matrix, wh: Matrix, bias: Vec<f32>, acts: GateActivations) -> Self {
        Self::checked(wx, wh, bias, acts).unwrap_or_else(|reason| panic!("{reason}"))
    }

    fn checked(
        wx: Matrix,
        wh: Matrix,
        bias: Vec<f32>,
        acts: GateActivations,
    ) -> Result<Self, String> {
        let width = G * wh.rows();
        if wx.cols() != width || wh.cols() != width || bias.len() != width {
            return Err(format!(
                "inconsistent {G}-gate shapes: wx {}x{}, wh {}x{}, bias {}",
                wx.rows(),
                wx.cols(),
                wh.rows(),
                wh.cols(),
                bias.len()
            ));
        }
        Ok(Self { wx, wh, bias, acts })
    }

    /// Takes `{prefix}.wx`, `{prefix}.wh`, `{prefix}.b` off a training
    /// export, in that order.
    pub(crate) fn take(
        bag: &mut TensorBag,
        prefix: &str,
        input: usize,
        hidden: usize,
        acts: GateActivations,
    ) -> Self {
        let wx = bag.take_matrix(&format!("{prefix}.wx"), input, G * hidden);
        let wh = bag.take_matrix(&format!("{prefix}.wh"), hidden, G * hidden);
        let bias = bag.take_vec(&format!("{prefix}.b"), G * hidden);
        Self::with_activations(wx, wh, bias, acts)
    }

    /// Bench weights: `Wx` then `Wh` drawn uniformly in `±1/√dh`, zero
    /// bias.
    pub(crate) fn random(
        input: usize,
        hidden: usize,
        acts: GateActivations,
        rng: &mut SeedableStream,
    ) -> Self {
        let wx = super::random_matrix(input, G * hidden, hidden, rng);
        let wh = super::random_matrix(hidden, G * hidden, hidden, rng);
        Self::with_activations(wx, wh, vec![0.0; G * hidden], acts)
    }

    /// The gate-activation contract this cell serves under.
    pub fn activations(&self) -> &GateActivations {
        &self.acts
    }

    /// Input weights `Wx` (`dx × G·dh`).
    pub fn wx(&self) -> &Matrix {
        &self.wx
    }

    /// Recurrent weights `Wh` (`dh × G·dh`) — the matrix the sparse
    /// kernel skips rows of.
    pub fn wh(&self) -> &Matrix {
        &self.wh
    }

    /// Bias (`G·dh`).
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// One-hot input ⇒ `Wx·x` degenerates to a row lookup (the paper's
    /// "implemented as a look-up table"). Bit-identical to the GEMM:
    /// multiplying by 1.0 is exact.
    fn lookup_rows(&self, rows: &[usize], zx: &mut Matrix) {
        zx.resize_for_overwrite(rows.len(), self.wx.cols());
        for (r, &row) in rows.iter().enumerate() {
            zx.row_mut(r).copy_from_slice(self.wx.row(row));
        }
    }

    /// The training cell's dense `x·Wx` GEMM on the plane staged in
    /// `scratch.embed`.
    fn project(&self, scratch: &mut StepScratch<f32>) {
        Matrix::matmul_from_rows_into(
            scratch.embed.as_slice(),
            scratch.embed.rows(),
            &self.wx,
            &mut scratch.zx,
        );
    }

    fn write(&self, w: &mut SnapshotWriter, prefix: &str) {
        snapshot::write_matrix(w, &format!("{prefix}.wx"), &self.wx);
        snapshot::write_matrix(w, &format!("{prefix}.wh"), &self.wh);
        w.f32s(&format!("{prefix}.bias"), &[self.bias.len()], &self.bias);
        snapshot::write_acts(w, &format!("{prefix}.acts"), &self.acts);
    }

    fn read(r: &mut SnapshotReader<'_>, prefix: &str) -> Result<Self, SnapshotError> {
        let wx = snapshot::read_matrix(r, &format!("{prefix}.wx"))?;
        let wh = snapshot::read_matrix(r, &format!("{prefix}.wh"))?;
        let (_, bias) = r.f32s(&format!("{prefix}.bias"))?;
        let acts = snapshot::read_acts(r, &format!("{prefix}.acts"))?;
        Self::checked(wx, wh, bias, acts).map_err(|reason| invalid(prefix, reason))
    }
}

impl RecurrentCell for FrozenLstm {
    type State = f32;

    fn input_dim(&self) -> usize {
        self.wx.rows()
    }

    fn hidden_dim(&self) -> usize {
        self.wh.rows()
    }

    /// The bias-free x-side: `LstmCell::forward` adds the bias *after*
    /// the recurrent merge, in the step.
    fn encode_rows(&self, rows: &[usize], scratch: &mut StepScratch<f32>) {
        self.lookup_rows(rows, &mut scratch.zx);
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
    fn step(
        &self,
        h: &StateLanes<f32>,
        c_prev: &StateLanes<f32>,
        pruner: &StatePruner,
        scratch: &mut StepScratch<f32>,
    ) {
        let dh = self.wh.rows();
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

    fn write_sections(&self, w: &mut SnapshotWriter) {
        self.write(w, "lstm");
    }

    fn read_sections(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Self::read(r, "lstm")
    }
}

impl DenseInputCell for FrozenLstm {
    fn encode_dense(&self, scratch: &mut StepScratch<f32>) {
        self.project(scratch);
    }
}

impl RecurrentCell for FrozenGru {
    type State = f32;

    fn input_dim(&self) -> usize {
        self.wx.rows()
    }

    fn hidden_dim(&self) -> usize {
        self.wh.rows()
    }

    /// The GRU keeps no cell state.
    fn cell_dim(&self) -> usize {
        0
    }

    /// Row lookup **plus the bias**: `GruCell::forward` folds the bias
    /// into the x-side before merging the recurrent contribution, so the
    /// frozen path must too.
    fn encode_rows(&self, rows: &[usize], scratch: &mut StepScratch<f32>) {
        self.lookup_rows(rows, &mut scratch.zx);
        scratch.zx.add_row_broadcast(&self.bias);
    }

    /// One batched GRU step in the caller's [`StepScratch`], replicating
    /// `zskip_nn::GruCell::forward` bit-for-bit, with family-side
    /// threshold pruning applied to the raw next state — mirroring the
    /// LSTM step.
    ///
    /// Note the family difference baked into the training cell: the bias
    /// is added to the x-side **before** the recurrent contribution is
    /// merged per gate, so `scratch.zx` must already carry it
    /// (`B × 3dh`, see `encode_rows` / `encode_dense`). The recurrent
    /// product lands in `scratch.zh`, the `[z | r | n]` gate planes in
    /// `scratch.gates`, the pruned next hidden state in
    /// `scratch.h_next`; the GRU carries no cell state, so
    /// `scratch.c_next` is left zero-width. The state is `f32` lanes borrowed
    /// straight from the batch, and a steady-state call allocates
    /// nothing. The gate non-linearities follow the cell's
    /// [`GateActivations`] contract: scalar `exp`-based calls under
    /// `Smooth`, the shared tables' batched kernels under `Lut` — both
    /// bit-pinned to the training cell; the surrounding pointwise runs
    /// over fused slice iterators.
    fn step(
        &self,
        h: &StateLanes<f32>,
        _c: &StateLanes<f32>,
        pruner: &StatePruner,
        scratch: &mut StepScratch<f32>,
    ) {
        let dh = self.wh.rows();
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
        scratch.c_next.resize(h.rows(), 0);
    }

    fn write_sections(&self, w: &mut SnapshotWriter) {
        self.write(w, "gru");
    }

    fn read_sections(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Self::read(r, "gru")
    }
}

impl DenseInputCell for FrozenGru {
    fn encode_dense(&self, scratch: &mut StepScratch<f32>) {
        self.project(scratch);
        scratch.zx.add_row_broadcast(&self.bias);
    }
}

/// The golden integer cell the accelerator's `FunctionalTile` is verified
/// bit-for-bit against, served as is: `i8 × i8 → i32` gate accumulators,
/// LUT non-linearities, 8-bit state storage. Sessions carry `i8` codes
/// between steps, exactly as states live in 8-bit DRAM between timesteps
/// on the hardware. The only thing the runtime adds is the **batched,
/// skip-aware accumulator** under the engine's
/// [`SkipPlan`](crate::SkipPlan), which is bit-free because integer
/// addition is associative and a code-0 unit contributes exact zeros.
impl RecurrentCell for QuantizedLstm {
    type State = i8;

    fn input_dim(&self) -> usize {
        self.input_dim()
    }

    fn hidden_dim(&self) -> usize {
        self.hidden_dim()
    }

    /// Eq. 5 is part of the quantized pointwise datapath (applied to the
    /// real value before re-quantization), so the threshold is frozen in.
    fn baked_threshold(&self) -> Option<f32> {
        Some(self.threshold())
    }

    /// Raw x-side `i32` accumulators, carried as `f32` (exactly
    /// representable, so the round-trip through the `Matrix` container
    /// is lossless): the cell's one-hot row lookup,
    /// [`QuantizedLstm::one_hot_accumulators_into`], per lane.
    fn encode_rows(&self, rows: &[usize], scratch: &mut StepScratch<i8>) {
        scratch
            .zx
            .resize_for_overwrite(rows.len(), 4 * self.hidden_dim());
        for (r, &tok) in rows.iter().enumerate() {
            self.one_hot_accumulators_into(tok, scratch.zx.row_mut(r));
        }
    }

    /// One batched quantized step: the skip-aware integer accumulator
    /// feeds the reference's batched post-GEMM stage
    /// ([`QuantizedLstm::step_lanes`]), so each lane is bit-identical to
    /// [`QuantizedLstm::step`] on that lane's codes (proptested in
    /// `tests/proptests.rs`). The cell prunes at its own baked threshold;
    /// [`DynamicBatcher::new`](crate::DynamicBatcher::new) has checked
    /// that `_pruner` carries the same one.
    fn step(
        &self,
        h: &StateLanes<i8>,
        c: &StateLanes<i8>,
        _pruner: &StatePruner,
        scratch: &mut StepScratch<i8>,
    ) {
        scratch.plan.gemm_t_i32_into(h, self.wh(), &mut scratch.acc);
        scratch.stages.lap(Stage::RecurrentGemm);

        // Every state code is written by the step — no zero-fill needed.
        scratch.h_next.resize_for_overwrite(c.rows(), c.cols());
        scratch.c_next.resize_for_overwrite(c.rows(), c.cols());
        self.step_lanes(
            scratch.zx.as_slice(),
            &scratch.acc,
            c.as_slice(),
            scratch.h_next.as_mut_slice(),
            scratch.c_next.as_mut_slice(),
        );
    }

    fn write_sections(&self, w: &mut SnapshotWriter) {
        snapshot::write_qmatrix(w, "q.wx", self.wx());
        snapshot::write_qmatrix(w, "q.wh", self.wh());
        w.f32s("q.bias", &[self.bias().len()], self.bias());
        snapshot::write_quantizer(w, "q.x_quant.step", self.x_quantizer());
        snapshot::write_quantizer(w, "q.h_quant.step", self.h_quantizer());
        snapshot::write_quantizer(w, "q.c_quant.step", self.c_quantizer());
        let luts = GateLuts::new(self.sigmoid_lut().clone(), self.tanh_lut().clone());
        snapshot::write_gate_luts(w, "q.luts", &luts);
        snapshot::write_f32_scalar(w, "q.threshold", self.threshold());
    }

    fn read_sections(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let wx = snapshot::read_qmatrix(r, "q.wx")?;
        let wh = snapshot::read_qmatrix(r, "q.wh")?;
        let (_, bias) = r.f32s("q.bias")?;
        let x_quant = snapshot::read_quantizer(r, "q.x_quant.step")?;
        let h_quant = snapshot::read_quantizer(r, "q.h_quant.step")?;
        let c_quant = snapshot::read_quantizer(r, "q.c_quant.step")?;
        let luts = snapshot::read_gate_luts(r, "q.luts")?;
        let threshold = snapshot::read_f32_scalar(r, "q.threshold")?;
        wh.check_gemm_t_acc()
            .map_err(|reason| invalid("q.wh.codes", reason))?;
        let (dx, dh) = (wx.rows(), wh.rows());
        QuantizedLstm::from_parts(
            dx, dh, wx, wh, bias, x_quant, h_quant, c_quant, luts, threshold,
        )
        .map_err(|reason| invalid("q", reason))
    }
}
