//! Row-major `f32` matrix with the operations an LSTM stack needs.
//!
//! The matrix is deliberately minimal: the `zskip` workspace only requires
//! GEMM/GEMV, transposed products for backpropagation, and element-wise
//! maps. Everything is written against flat slices so the compiler can
//! autovectorize the inner loops; `matmul` is cache-blocked over `k`.

use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f32`.
///
/// # Example
///
/// ```
/// use zskip_tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
/// assert_eq!(m[(1, 2)], 5.0);
/// assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            .expect("matrix dimensions overflow usize");
        Self {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates a matrix from a generator called as `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Creates a matrix that takes ownership of `data` interpreted row-major.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix by copying a slice of equally long rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has length {} != {cols}", r.len());
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements (`rows * cols`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its row-major storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "col {c} out of bounds ({} cols)", self.cols);
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Self {
        let mut t = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        t
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn gemv(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "gemv dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (r, out) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0f32;
            for (w, v) in row.iter().zip(x) {
                acc += w * v;
            }
            *out = acc;
        }
        y
    }

    /// Matrix product `self · rhs`, cache-blocked over the inner dimension.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        Self::matmul_from_rows_into(&self.data, self.rows, rhs, &mut out);
        out
    }

    /// [`Self::matmul`] with the left operand given as a row-major slice
    /// (`m` rows of `rhs.rows()` elements), writing into a caller-provided
    /// matrix (resized to `m × rhs.cols()`, allocation-free once its
    /// capacity fits) — the serving runtime's state lanes and scratch
    /// buffers step through here without a copy.
    ///
    /// On x86-64 with AVX2 (runtime-detected, unless vetoed by
    /// `ZSKIP_FORCE_PORTABLE` — see [`crate::simd`]) each 64-row chunk of
    /// `rhs` picks one of two bodies from its coefficient fill, the
    /// paper's dense/sparse mode split made per chunk: a chunk with at
    /// least 3/4 of its `m × 64` coefficients non-zero runs a register
    /// tile (8 lanes × 8 columns of accumulators held in ymm registers
    /// over the chunk, so each weight-row segment is loaded once per
    /// 8-lane block and each output stored once per chunk); a sparser one
    /// keeps the lane-outer loop, which fetches only each lane's own
    /// non-zero rows. A block whose kept rows hold a zero in some lane, and
    /// a lone remainder lane, run the lane-outer loop too, so the tile
    /// never multiplies a coefficient the portable body skips. The result
    /// is **bit-identical** to the portable body either way: each output
    /// element receives the same additions in the same increasing-`k`
    /// order, one `mul` + `add` at a time (no FMA contraction — intrinsics
    /// are never contracted).
    ///
    /// # Panics
    ///
    /// Panics if `lhs.len() != m * rhs.rows()`.
    pub fn matmul_from_rows_into(lhs: &[f32], m: usize, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            lhs.len(),
            m * rhs.rows,
            "matmul dimension mismatch: {} lhs elements for {}x{} · {}x{}",
            lhs.len(),
            m,
            rhs.rows,
            rhs.rows,
            rhs.cols
        );
        out.resize(m, rhs.cols);
        #[cfg(target_arch = "x86_64")]
        if crate::simd::use_avx2() {
            // SAFETY: AVX2 was just detected; the twin's own `unsafe` is
            // confined to bounds-guarded 8-lane loads/stores.
            unsafe { Self::matmul_rows_avx2(lhs, m, rhs, &mut out.data) };
            return;
        }
        Self::matmul_rows_portable(lhs, m, rhs, &mut out.data);
    }

    /// Portable dense body: cache-blocked over `k`, skipping zero
    /// multiplicands, accumulating each output element in increasing-`k`
    /// order. `out` is pre-zeroed by the caller.
    fn matmul_rows_portable(lhs: &[f32], m: usize, rhs: &Matrix, out: &mut [f32]) {
        let (k, n) = (rhs.rows, rhs.cols);
        const KB: usize = 64;
        for k0 in (0..k).step_by(KB) {
            let k1 = (k0 + KB).min(k);
            for i in 0..m {
                let a_row = &lhs[i * k..(i + 1) * k];
                let out_row = &mut out[i * n..(i + 1) * n];
                for (kk, &a) in a_row.iter().enumerate().take(k1).skip(k0) {
                    if a == 0.0 {
                        continue;
                    }
                    let b_row = &rhs.data[kk * n..(kk + 1) * n];
                    for (o, b) in out_row.iter_mut().zip(b_row) {
                        *o += a * b;
                    }
                }
            }
        }
    }

    /// Matrix product `self · rhs` that reads only the rows of `rhs` listed
    /// in `active_rows` — the sparse recurrent kernel of the serving
    /// runtime.
    ///
    /// `self` is `m × k` (batch of states, one lane per row), `rhs` is
    /// `k × n` (recurrent weights `Wh`), and `active_rows` holds the state
    /// indices that are non-zero in at least one lane, in strictly
    /// increasing order — exactly what `zskip-core`'s offset encoding
    /// stores. Rows of `rhs` absent from `active_rows` are never touched,
    /// which is where the wall-clock win comes from: at joint sparsity `s`
    /// only `(1-s)·k` rows of the weight matrix are streamed through the
    /// cache.
    ///
    /// The result is **bit-identical** to [`Self::matmul`] whenever
    /// `active_rows` covers every column of `self` containing a non-zero:
    /// both kernels accumulate along `k` in increasing order and both skip
    /// zero multiplicands, so the sequence of floating-point additions per
    /// output element is the same.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or if `active_rows` is not strictly
    /// increasing and within `0..rhs.rows()`.
    pub fn matmul_sparse_rows(&self, rhs: &Matrix, active_rows: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        Self::matmul_sparse_rows_from_into(&self.data, self.rows, rhs, active_rows, &mut out);
        out
    }

    /// [`Self::matmul_sparse_rows`] with the left operand given as a
    /// row-major slice (`m` rows of `rhs.rows()` elements), writing into
    /// a caller-provided matrix (resized to `m × rhs.cols()`,
    /// allocation-free once its capacity fits) — the serving runtime's
    /// recurrent product lands here every step, with no `Matrix` copy of
    /// the batch.
    ///
    /// Row-blocked accumulation: per output row, the non-zero
    /// (coefficient, weight row) pairs of each 64-row chunk of
    /// `active_rows` are gathered on the stack, then four weight rows
    /// accumulate per pass over the output row. On x86-64 with AVX2
    /// (runtime-detected, `ZSKIP_FORCE_PORTABLE` vetoes — see
    /// [`crate::simd`]) each pass runs 8 output columns per instruction.
    ///
    /// Bit-exactness: within each output element the additions still
    /// happen one at a time in increasing `k` order (`s += a0*b0` then
    /// `s += a1*b1`, …, separate `mul` and `add` — never an FMA), so the
    /// float result is unchanged from the unblocked scalar loop — and
    /// therefore still bit-identical to [`Self::matmul`].
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or if `active_rows` is not strictly
    /// increasing and within `0..rhs.rows()`.
    pub fn matmul_sparse_rows_from_into(
        lhs: &[f32],
        m: usize,
        rhs: &Matrix,
        active_rows: &[usize],
        out: &mut Matrix,
    ) {
        assert_eq!(
            lhs.len(),
            m * rhs.rows,
            "matmul_sparse_rows dimension mismatch: {} lhs elements for {}x{} · {}x{}",
            lhs.len(),
            m,
            rhs.rows,
            rhs.rows,
            rhs.cols
        );
        assert!(
            active_rows.windows(2).all(|w| w[0] < w[1]),
            "active_rows must be strictly increasing"
        );
        if let Some(&last) = active_rows.last() {
            assert!(last < rhs.rows, "active row {last} out of bounds");
        }
        out.resize(m, rhs.cols);
        #[cfg(target_arch = "x86_64")]
        if crate::simd::use_avx2() {
            // SAFETY: AVX2 was just detected; the twin's own `unsafe` is
            // confined to bounds-guarded 8-lane loads/stores.
            unsafe { Self::sparse_rows_avx2(lhs, m, rhs, active_rows, &mut out.data) };
            return;
        }
        Self::sparse_rows_portable(lhs, m, rhs, active_rows, &mut out.data);
    }

    /// Portable sparse body (see [`Self::matmul_sparse_rows_from_into`]
    /// for the blocking and bit-exactness story). `out` is pre-zeroed by
    /// the caller.
    fn sparse_rows_portable(
        lhs: &[f32],
        m: usize,
        rhs: &Matrix,
        active_rows: &[usize],
        out: &mut [f32],
    ) {
        let (k, n) = (rhs.rows, rhs.cols);
        const KB: usize = 64;
        let mut coeff = [0.0f32; KB];
        let mut brow = [0usize; KB];
        for chunk in active_rows.chunks(KB) {
            for i in 0..m {
                let a_row = &lhs[i * k..(i + 1) * k];
                let out_row = &mut out[i * n..(i + 1) * n];
                let mut cnt = 0usize;
                for &kk in chunk {
                    let a = a_row[kk];
                    if a != 0.0 {
                        coeff[cnt] = a;
                        brow[cnt] = kk;
                        cnt += 1;
                    }
                }
                let mut p = 0usize;
                while p + 4 <= cnt {
                    let (a0, a1, a2, a3) = (coeff[p], coeff[p + 1], coeff[p + 2], coeff[p + 3]);
                    let b0 = &rhs.data[brow[p] * n..brow[p] * n + n];
                    let b1 = &rhs.data[brow[p + 1] * n..brow[p + 1] * n + n];
                    let b2 = &rhs.data[brow[p + 2] * n..brow[p + 2] * n + n];
                    let b3 = &rhs.data[brow[p + 3] * n..brow[p + 3] * n + n];
                    for ((((o, b0), b1), b2), b3) in
                        out_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                    {
                        let mut s = *o;
                        s += a0 * b0;
                        s += a1 * b1;
                        s += a2 * b2;
                        s += a3 * b3;
                        *o = s;
                    }
                    p += 4;
                }
                while p < cnt {
                    let a = coeff[p];
                    let b_row = &rhs.data[brow[p] * n..brow[p] * n + n];
                    for (o, b) in out_row.iter_mut().zip(b_row) {
                        *o += a * b;
                    }
                    p += 1;
                }
            }
        }
    }

    /// Indices of columns that hold a non-zero in **any** row — the
    /// batch-joint skip pattern of the paper's Section III-D, in the form
    /// [`Self::matmul_sparse_rows`] consumes.
    pub fn jointly_nonzero_columns(&self) -> Vec<usize> {
        let mut active = Vec::with_capacity(self.cols);
        for c in 0..self.cols {
            if (0..self.rows).any(|r| self.data[r * self.cols + c] != 0.0) {
                active.push(c);
            }
        }
        active
    }

    /// Accumulates `alpha · lhsᵀ · rhs` into `self`.
    ///
    /// `lhs` is `k × m`, `rhs` is `k × n`, and `self` must be `m × n`. This
    /// is the shape that weight-gradient accumulation takes in
    /// backpropagation (`dW += Xᵀ · dZ`), so it is provided directly instead
    /// of materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics on any dimension mismatch.
    pub fn add_tgemm(&mut self, alpha: f32, lhs: &Matrix, rhs: &Matrix) {
        assert_eq!(lhs.rows, rhs.rows, "add_tgemm inner dimension mismatch");
        assert_eq!(self.rows, lhs.cols, "add_tgemm output rows mismatch");
        assert_eq!(self.cols, rhs.cols, "add_tgemm output cols mismatch");
        let (k, m, n) = (lhs.rows, self.rows, self.cols);
        for kk in 0..k {
            let l_row = &lhs.data[kk * m..(kk + 1) * m];
            let r_row = &rhs.data[kk * n..(kk + 1) * n];
            for (i, lv) in l_row.iter().enumerate() {
                let a = alpha * lv;
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut self.data[i * n..(i + 1) * n];
                for (o, b) in out_row.iter_mut().zip(r_row) {
                    *o += a * b;
                }
            }
        }
    }

    /// Matrix product with the transpose of `rhs`: `self · rhsᵀ`.
    ///
    /// `self` is `m × k`, `rhs` is `n × k`; the result is `m × n`. This is
    /// the shape of the input-gradient product in backpropagation
    /// (`dX = dZ · Wᵀ`).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "matmul_nt dimension mismatch");
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &rhs.data[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (a, b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
        out
    }

    /// Adds `rhs` element-wise into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.rows, rhs.rows, "add_assign shape mismatch");
        assert_eq!(self.cols, rhs.cols, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Adds `row` to every row of `self` (broadcast add, used for biases).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn add_row_broadcast(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "broadcast row length mismatch");
        for r in 0..self.rows {
            let dst = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (d, b) in dst.iter_mut().zip(row) {
                *d += b;
            }
        }
    }

    /// Multiplies every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Reshapes to `rows × cols` and zeroes every element, reusing the
    /// existing allocation whenever the new size fits its capacity — the
    /// entry point the serving runtime's scratch buffers go through, so
    /// a steady-state step (constant batch shape) never reallocates.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        let len = rows
            .checked_mul(cols)
            .expect("matrix dimensions overflow usize");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(len, 0.0);
    }

    /// [`Self::resize`] without the zero-fill: existing elements keep
    /// whatever values they held (only newly grown storage is zeroed).
    /// For buffers the caller overwrites completely before reading —
    /// row-lookup staging like the one-hot families' `zx` — this skips
    /// a full pass over the data on every step. GEMM *outputs* must use
    /// [`Self::resize`]: the `_into` kernels accumulate into zeroes.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        let len = rows
            .checked_mul(cols)
            .expect("matrix dimensions overflow usize");
        self.rows = rows;
        self.cols = cols;
        self.data.resize(len, 0.0);
    }

    /// Fraction of elements that are exactly zero.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|v| **v == 0.0).count();
        zeros as f64 / self.data.len() as f64
    }

    /// Largest absolute element value (0.0 for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }
}

/// Coefficient fill at or above which a 64-row chunk of the dense product
/// runs the register-tiled body, as `(num, den)`: at least `num / den` of
/// the chunk's `lanes × rows` coefficients are non-zero. Below it the
/// chunk keeps the lane-outer loop — the paper's dense/sparse mode split,
/// made per chunk.
///
/// On column-joint zeros (an unpruned batch, or a pruned state whose dead
/// units are dead in every lane) the fill is the joint density, and there
/// the `matmul_dense` `_joint` sweeps in `crates/bench/benches/kernels.rs`
/// show the tile ahead of the lane-outer loop at every fill measured, down
/// to 10%. Zeros that differ per lane never tile: a block holding one runs
/// the lane-outer loop whatever the fill. So the constant is set high on
/// purpose, to keep the f32 head's pruned input on the sparse serving
/// paths (~6 of 64 units alive) on the lane-outer loop; see
/// `docs/BENCH_RESULTS.md` and ROADMAP items 1(e) and 2.
#[cfg(target_arch = "x86_64")]
const TILED_MIN_FILL: (usize, usize) = (3, 4);

/// AVX2 twins of the f32 GEMM kernels, each bit-identical to its portable
/// body; the proptests below pin every pair together.
///
/// The sparse twin and the dense twin's lane-outer chunks mirror the
/// portable structure exactly — the same 64-row chunking, the same
/// zero-coefficient filtering, four weight rows per pass over one lane's
/// output row — and differ only in running 8 output columns per
/// instruction.
///
/// The dense twin's dense-mode chunks (see [`TILED_MIN_FILL`]) run a
/// register tile instead: a block of 8 lanes (4 or 2 for the remainder,
/// with 2 or 4 column strips so a tile always holds 8 accumulators) × a
/// strip of 8 columns keeps its accumulators in ymm registers across the
/// whole chunk, loads each `Wh` row segment once per block and stores each
/// output once per chunk. The bits stay the portable body's:
///
/// - every element still receives one `_mm256_mul_ps` then one
///   `_mm256_add_ps` per term, in increasing `k`, starting from the +0
///   that [`Matrix::resize`] writes (intrinsics are never FMA-contracted);
/// - a row that is zero in every lane of the block is dropped, as the
///   portable loop drops it;
/// - a block in which some kept row is zero in some lane (a ±0 the
///   portable loop would skip, where ±0 · inf would add NaN) runs the
///   lane-outer loop instead, and so does a lone remainder lane, where the
///   tile has no weight reuse to gain. So the tile multiplies in exactly
///   the terms the portable loop does.
#[cfg(target_arch = "x86_64")]
impl Matrix {
    #[target_feature(enable = "avx2")]
    fn matmul_rows_avx2(lhs: &[f32], m: usize, rhs: &Matrix, out: &mut [f32]) {
        const KB: usize = 64;
        let k = rhs.rows;
        for k0 in (0..k).step_by(KB) {
            let k1 = (k0 + KB).min(k);
            if Self::chunk_is_dense(lhs, m, k, k0, k1) {
                Self::tiled_chunk_avx2(lhs, m, rhs, k0, k1, out);
            } else {
                Self::lane_outer_chunk_avx2(lhs, 0..m, rhs, k0, k1, out);
            }
        }
    }

    /// Rows `k0..k1` (`<= 64`) of `rhs` for `lanes` of `lhs`, one lane at a
    /// time: each lane gathers its own non-zero coefficients, and
    /// [`Self::accumulate_rows_f32_avx2`] adds their rows into its output.
    #[target_feature(enable = "avx2")]
    fn lane_outer_chunk_avx2(
        lhs: &[f32],
        lanes: std::ops::Range<usize>,
        rhs: &Matrix,
        k0: usize,
        k1: usize,
        out: &mut [f32],
    ) {
        const KB: usize = 64;
        let (k, n) = (rhs.rows, rhs.cols);
        let mut coeff = [0.0f32; KB];
        let mut brow = [0usize; KB];
        for i in lanes {
            let a_row = &lhs[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            let mut cnt = 0usize;
            for (kk, &a) in a_row.iter().enumerate().take(k1).skip(k0) {
                if a != 0.0 {
                    coeff[cnt] = a;
                    brow[cnt] = kk;
                    cnt += 1;
                }
            }
            Self::accumulate_rows_f32_avx2(&rhs.data, n, &coeff[..cnt], &brow[..cnt], out_row);
        }
    }

    /// Whether rows `k0..k1` of the `m` lanes of `lhs` (`m × k`, row-major)
    /// are in dense mode (see [`TILED_MIN_FILL`]). Counts lane by lane and
    /// stops as soon as the verdict is settled either way. NaN counts as
    /// non-zero and ±0 as zero, as in the portable body's `a == 0.0` skip.
    #[target_feature(enable = "avx2")]
    fn chunk_is_dense(lhs: &[f32], m: usize, k: usize, k0: usize, k1: usize) -> bool {
        use std::arch::x86_64::*;
        let (num, den) = TILED_MIN_FILL;
        let rows = k1 - k0;
        let need = (m * rows * num).div_ceil(den);
        let mut nnz = 0usize;
        for i in 0..m {
            let mut groups = lhs[i * k + k0..i * k + k1].chunks_exact(8);
            for g in &mut groups {
                // SAFETY: `g` holds exactly 8 elements.
                let v = unsafe { _mm256_loadu_ps(g.as_ptr()) };
                let nz = _mm256_cmp_ps::<_CMP_NEQ_UQ>(v, _mm256_setzero_ps());
                nnz += _mm256_movemask_ps(nz).count_ones() as usize;
            }
            nnz += groups.remainder().iter().filter(|&&a| a != 0.0).count();
            if nnz >= need {
                return true;
            }
            if nnz + (m - 1 - i) * rows < need {
                return false;
            }
        }
        need == 0
    }

    /// One dense-mode chunk (rows `k0..k1` of `rhs`) for every lane: blocks
    /// of 8 lanes, then 4 and 2 for the remainder; a last lone lane runs
    /// the lane-outer loop.
    #[target_feature(enable = "avx2")]
    fn tiled_chunk_avx2(
        lhs: &[f32],
        m: usize,
        rhs: &Matrix,
        k0: usize,
        k1: usize,
        out: &mut [f32],
    ) {
        let mut i0 = 0usize;
        while i0 < m {
            i0 += match m - i0 {
                8.. => Self::tile_block_avx2::<8, 1>(lhs, i0, rhs, k0, k1, out),
                4..=7 => Self::tile_block_avx2::<4, 2>(lhs, i0, rhs, k0, k1, out),
                2..=3 => Self::tile_block_avx2::<2, 4>(lhs, i0, rhs, k0, k1, out),
                _ => {
                    Self::lane_outer_chunk_avx2(lhs, i0..m, rhs, k0, k1, out);
                    1
                }
            };
        }
    }

    /// Lanes `i0..i0 + L` over rows `k0..k1` (`<= 64`) of `rhs`: gathers the
    /// block's kept rows (non-zero in some lane of the block) with their
    /// `L` coefficients, then runs the strips `S` at a time (see
    /// [`Self::tile_strips_avx2`]). A kept row that is zero in some lane
    /// sends the whole block to the lane-outer loop. Returns `L`.
    #[target_feature(enable = "avx2")]
    fn tile_block_avx2<const L: usize, const S: usize>(
        lhs: &[f32],
        i0: usize,
        rhs: &Matrix,
        k0: usize,
        k1: usize,
        out: &mut [f32],
    ) -> usize {
        const KB: usize = 64;
        let (k, n) = (rhs.rows, rhs.cols);
        let mut coeff = [[0.0f32; L]; KB];
        let mut brow = [0usize; KB];
        let mut cnt = 0usize;
        for kk in k0..k1 {
            let a: [f32; L] = std::array::from_fn(|l| lhs[(i0 + l) * k + kk]);
            if a.iter().all(|&x| x == 0.0) {
                continue;
            }
            if a.contains(&0.0) {
                Self::lane_outer_chunk_avx2(lhs, i0..i0 + L, rhs, k0, k1, out);
                return L;
            }
            coeff[cnt] = a;
            brow[cnt] = kk;
            cnt += 1;
        }
        let out = &mut out[i0 * n..(i0 + L) * n];
        Self::tile_strips_avx2::<L, S>(&rhs.data, n, &coeff[..cnt], &brow[..cnt], out);
        L
    }

    /// `out[l·n + c] += Σ_p coeff[p][l] · data[rows[p]·n + c]` for the `L`
    /// output rows of a block: `L × S` register tiles of 8-column strips
    /// (`L · S == 8` accumulators, so a narrow block still has 8
    /// independent add chains in flight), then single strips, then a scalar
    /// column tail in the same order.
    ///
    /// Invariants: `coeff` and `rows` have one entry per kept row, and
    /// every coefficient is non-zero; `out.len() == L · n` and every
    /// `(rows[p] + 1) · n <= data.len()` are asserted, since the unsafe
    /// tile loads rely on them.
    #[target_feature(enable = "avx2")]
    fn tile_strips_avx2<const L: usize, const S: usize>(
        data: &[f32],
        n: usize,
        coeff: &[[f32; L]],
        rows: &[usize],
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), L * n, "output block length mismatch");
        assert!(
            rows.iter().all(|&r| (r + 1) * n <= data.len()),
            "weight row out of bounds"
        );
        let mut c = 0usize;
        while c + 8 * S <= n {
            // SAFETY: AVX2 is enabled here; `c + 8·S <= n` keeps the tile's
            // columns inside each of the `L` output rows and each weight row
            // (both bounds asserted above).
            unsafe {
                let (w, o) = (data.as_ptr().add(c), out.as_mut_ptr().add(c));
                Self::tile_avx2::<L, S>(w, n, coeff, rows, o);
            }
            c += 8 * S;
        }
        while c + 8 <= n {
            // SAFETY: as above, with `c + 8 <= n` for a single strip.
            unsafe {
                let (w, o) = (data.as_ptr().add(c), out.as_mut_ptr().add(c));
                Self::tile_avx2::<L, 1>(w, n, coeff, rows, o);
            }
            c += 8;
        }
        if c < n {
            for l in 0..L {
                let out_row = &mut out[l * n + c..(l + 1) * n];
                for (&r, a) in rows.iter().zip(coeff) {
                    for (o, b) in out_row.iter_mut().zip(&data[r * n + c..(r + 1) * n]) {
                        *o += a[l] * b;
                    }
                }
            }
        }
    }

    /// One `L`-lane × `S`-strip tile: loads the `L · S` accumulators from
    /// `out` (row stride `n`), adds every kept row's products in order, and
    /// stores them back once.
    ///
    /// # Safety
    ///
    /// AVX2 must be available; `out.add(l·n + j)` for `l < L`, `j < 8·S`
    /// must be valid for reads and writes, and `w.add(rows[p]·n + j)` for
    /// every `p`, `j < 8·S` valid for reads.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tile_avx2<const L: usize, const S: usize>(
        w: *const f32,
        n: usize,
        coeff: &[[f32; L]],
        rows: &[usize],
        out: *mut f32,
    ) {
        use std::arch::x86_64::*;
        // SAFETY: every pointer offset below is one the caller vouches for.
        unsafe {
            let mut acc: [[__m256; S]; L] = std::array::from_fn(|l| {
                std::array::from_fn(|s| _mm256_loadu_ps(out.add(l * n + 8 * s)))
            });
            for (&r, a) in rows.iter().zip(coeff) {
                let row = w.add(r * n);
                let b: [__m256; S] = std::array::from_fn(|s| _mm256_loadu_ps(row.add(8 * s)));
                for l in 0..L {
                    let va = _mm256_set1_ps(a[l]);
                    for s in 0..S {
                        acc[l][s] = _mm256_add_ps(acc[l][s], _mm256_mul_ps(va, b[s]));
                    }
                }
            }
            for (l, acc) in acc.iter().enumerate() {
                for (s, a) in acc.iter().enumerate() {
                    _mm256_storeu_ps(out.add(l * n + 8 * s), *a);
                }
            }
        }
    }

    #[target_feature(enable = "avx2")]
    fn sparse_rows_avx2(
        lhs: &[f32],
        m: usize,
        rhs: &Matrix,
        active_rows: &[usize],
        out: &mut [f32],
    ) {
        let (k, n) = (rhs.rows, rhs.cols);
        const KB: usize = 64;
        let mut coeff = [0.0f32; KB];
        let mut brow = [0usize; KB];
        for chunk in active_rows.chunks(KB) {
            for i in 0..m {
                let a_row = &lhs[i * k..(i + 1) * k];
                let out_row = &mut out[i * n..(i + 1) * n];
                let mut cnt = 0usize;
                for &kk in chunk {
                    let a = a_row[kk];
                    if a != 0.0 {
                        coeff[cnt] = a;
                        brow[cnt] = kk;
                        cnt += 1;
                    }
                }
                Self::accumulate_rows_f32_avx2(&rhs.data, n, &coeff[..cnt], &brow[..cnt], out_row);
            }
        }
    }

    /// `out[c] += Σ_p coeff[p] · data[rows[p]·n + c]` for one output row,
    /// four weight rows per pass, 8 columns per instruction, with scalar
    /// column tails replaying the identical add order.
    ///
    /// Invariants (upheld by the two callers): every `rows[p]` is
    /// `< data.len() / n`; `out.len() == n` is asserted, since the unsafe
    /// column loop relies on it.
    #[target_feature(enable = "avx2")]
    fn accumulate_rows_f32_avx2(
        data: &[f32],
        n: usize,
        coeff: &[f32],
        rows: &[usize],
        out: &mut [f32],
    ) {
        use std::arch::x86_64::*;
        assert_eq!(out.len(), n, "output row length mismatch");
        let mut p = 0usize;
        while p + 4 <= rows.len() {
            let (a0, a1, a2, a3) = (coeff[p], coeff[p + 1], coeff[p + 2], coeff[p + 3]);
            let va0 = _mm256_set1_ps(a0);
            let va1 = _mm256_set1_ps(a1);
            let va2 = _mm256_set1_ps(a2);
            let va3 = _mm256_set1_ps(a3);
            let b0 = &data[rows[p] * n..rows[p] * n + n];
            let b1 = &data[rows[p + 1] * n..rows[p + 1] * n + n];
            let b2 = &data[rows[p + 2] * n..rows[p + 2] * n + n];
            let b3 = &data[rows[p + 3] * n..rows[p + 3] * n + n];
            let mut c = 0usize;
            while c + 8 <= n {
                // SAFETY: `c + 8 <= n` bounds every 8-lane load within
                // its row slice and the load/store within `out`
                // (len == n, checked above).
                unsafe {
                    let mut s = _mm256_loadu_ps(out.as_ptr().add(c));
                    s = _mm256_add_ps(s, _mm256_mul_ps(va0, _mm256_loadu_ps(b0.as_ptr().add(c))));
                    s = _mm256_add_ps(s, _mm256_mul_ps(va1, _mm256_loadu_ps(b1.as_ptr().add(c))));
                    s = _mm256_add_ps(s, _mm256_mul_ps(va2, _mm256_loadu_ps(b2.as_ptr().add(c))));
                    s = _mm256_add_ps(s, _mm256_mul_ps(va3, _mm256_loadu_ps(b3.as_ptr().add(c))));
                    _mm256_storeu_ps(out.as_mut_ptr().add(c), s);
                }
                c += 8;
            }
            while c < n {
                let mut s = out[c];
                s += a0 * b0[c];
                s += a1 * b1[c];
                s += a2 * b2[c];
                s += a3 * b3[c];
                out[c] = s;
                c += 1;
            }
            p += 4;
        }
        while p < rows.len() {
            let a = coeff[p];
            let va = _mm256_set1_ps(a);
            let b_row = &data[rows[p] * n..rows[p] * n + n];
            let mut c = 0usize;
            while c + 8 <= n {
                // SAFETY: as above — `c + 8 <= n` bounds both sides.
                unsafe {
                    let s = _mm256_loadu_ps(out.as_ptr().add(c));
                    let prod = _mm256_mul_ps(va, _mm256_loadu_ps(b_row.as_ptr().add(c)));
                    _mm256_storeu_ps(out.as_mut_ptr().add(c), _mm256_add_ps(s, prod));
                }
                c += 8;
            }
            while c < n {
                out[c] += a * b_row[c];
                c += 1;
            }
            p += 1;
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>9.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|v| *v == 0.0));
    }

    #[test]
    fn from_fn_and_index_round_trip() {
        let m = Matrix::from_fn(3, 2, |r, c| (10 * r + c) as f32);
        assert_eq!(m[(2, 1)], 21.0);
        assert_eq!(m.row(1), &[10.0, 11.0]);
        assert_eq!(m.col(0), vec![0.0, 10.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn gemv_matches_manual() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let y = m.gemv(&[1.0, 0.0, -1.0]);
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    fn matmul_identity() {
        let m = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let id = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(m.matmul(&id), m);
        assert_eq!(id.matmul(&m), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_fn(2, 4, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(3, 4, |r, c| (r * c) as f32 + 1.0);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn add_tgemm_matches_explicit_transpose() {
        let l = Matrix::from_fn(5, 2, |r, c| (r * 2 + c) as f32 * 0.5);
        let r = Matrix::from_fn(5, 3, |i, j| (i + j) as f32 * 0.25);
        let mut acc = Matrix::from_fn(2, 3, |i, j| (i * j) as f32);
        let expect = {
            let mut e = acc.clone();
            e.add_assign(&{
                let mut p = l.transpose().matmul(&r);
                p.scale(2.0);
                p
            });
            e
        };
        acc.add_tgemm(2.0, &l, &r);
        for (a, b) in acc.as_slice().iter().zip(expect.as_slice()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn matmul_sparse_rows_with_full_active_set_matches_dense() {
        let a = Matrix::from_fn(3, 5, |r, c| ((r * 5 + c) as f32 * 0.7).sin());
        let b = Matrix::from_fn(5, 4, |r, c| ((r + c * 3) as f32 * 0.3).cos());
        let all: Vec<usize> = (0..5).collect();
        assert_eq!(a.matmul_sparse_rows(&b, &all), a.matmul(&b));
    }

    #[test]
    fn matmul_sparse_rows_is_bitwise_equal_on_pruned_state() {
        // Zero out columns 1 and 3 across every lane, then skip them.
        let mut a = Matrix::from_fn(4, 6, |r, c| ((r * 6 + c) as f32 * 0.17).sin());
        for r in 0..4 {
            a[(r, 1)] = 0.0;
            a[(r, 3)] = 0.0;
        }
        let b = Matrix::from_fn(6, 8, |r, c| ((r * 8 + c) as f32 * 0.05).cos());
        let active = a.jointly_nonzero_columns();
        assert_eq!(active, vec![0, 2, 4, 5]);
        let sparse = a.matmul_sparse_rows(&b, &active);
        let dense = a.matmul(&b);
        for (s, d) in sparse.as_slice().iter().zip(dense.as_slice()) {
            assert_eq!(s.to_bits(), d.to_bits());
        }
    }

    #[test]
    fn matmul_sparse_rows_empty_active_set_is_zero() {
        let a = Matrix::zeros(2, 4);
        let b = Matrix::from_fn(4, 3, |_, _| 1.0);
        let out = a.matmul_sparse_rows(&b, &[]);
        assert!(out.as_slice().iter().all(|v| *v == 0.0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn matmul_sparse_rows_rejects_unsorted_active_set() {
        let a = Matrix::zeros(1, 3);
        let b = Matrix::zeros(3, 2);
        let _ = a.matmul_sparse_rows(&b, &[2, 0]);
    }

    #[test]
    fn jointly_nonzero_columns_unions_lanes() {
        let m = Matrix::from_rows(&[&[0.0, 1.0, 0.0, 0.0], &[0.0, 0.0, 0.0, 2.0]]);
        assert_eq!(m.jointly_nonzero_columns(), vec![1, 3]);
    }

    #[test]
    fn broadcast_add_applies_to_each_row() {
        let mut m = Matrix::zeros(2, 3);
        m.add_row_broadcast(&[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn sparsity_counts_exact_zeros() {
        let m = Matrix::from_vec(1, 4, vec![0.0, 1.0, 0.0, 2.0]);
        assert_eq!(m.sparsity(), 0.5);
    }

    #[test]
    fn display_is_nonempty() {
        let m = Matrix::zeros(1, 1);
        assert!(!format!("{m}").is_empty());
        assert!(!format!("{m:?}").is_empty());
    }

    #[test]
    fn resize_reuses_storage_and_zeroes() {
        let mut m = Matrix::from_fn(4, 8, |r, c| (r * 8 + c) as f32 + 1.0);
        m.resize(2, 6);
        assert_eq!((m.rows(), m.cols()), (2, 6));
        assert!(m.as_slice().iter().all(|v| *v == 0.0));
        // Shrinking then growing back within capacity keeps the buffer.
        let ptr = m.as_slice().as_ptr();
        m.resize(4, 8);
        assert_eq!(m.as_slice().as_ptr(), ptr);
        assert!(m.as_slice().iter().all(|v| *v == 0.0));
    }

    #[test]
    fn into_kernels_match_allocating_entry_points() {
        let a = Matrix::from_fn(3, 9, |r, c| ((r * 9 + c) as f32 * 0.21).sin());
        let b = Matrix::from_fn(9, 7, |r, c| ((r * 7 + c) as f32 * 0.19).cos());
        let active: Vec<usize> = vec![0, 2, 3, 7];
        let mut out = Matrix::from_fn(1, 1, |_, _| 9.0); // wrong shape + garbage
        Matrix::matmul_from_rows_into(a.as_slice(), 3, &b, &mut out);
        assert_eq!(out, a.matmul(&b));
        Matrix::matmul_sparse_rows_from_into(a.as_slice(), 3, &b, &active, &mut out);
        assert_eq!(out, a.matmul_sparse_rows(&b, &active));
    }
}

/// The f32 kernel pin: whatever body the runtime dispatch picks (AVX2
/// twin on capable hosts, portable elsewhere or under
/// `ZSKIP_FORCE_PORTABLE`), the `*_into` entry points must be
/// bit-identical to the portable bodies — the same pin the i8 kernels
/// carry in [`crate::quant`]. Random shapes, batch widths, sparsity masks
/// and active sets, including the sub-8-column tails the SIMD loop leaves
/// to its scalar epilogue.
#[cfg(test)]
mod dispatch_pin {
    use super::*;
    use proptest::prelude::*;
    use std::cell::RefCell;

    thread_local! {
        /// One output buffer carried from case to case, as a step scratch
        /// is carried from step to step when the batch width changes.
        static CARRIED: RefCell<Matrix> = RefCell::new(Matrix::zeros(2, 3));
    }

    /// Runs `kernel` into the carried buffer — still at the previous
    /// case's shape, and NaN-filled so a missed zeroing shows — and
    /// returns a copy of what it wrote.
    fn into_carried(kernel: impl FnOnce(&mut Matrix)) -> Matrix {
        CARRIED.with(|carried| {
            let mut out = carried.borrow_mut();
            out.as_mut_slice().fill(f32::NAN);
            kernel(&mut out);
            out.clone()
        })
    }

    /// A seeded LCG yielding 31-bit draws.
    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 33
        }
    }

    fn masked_lhs(m: usize, k: usize, sparsity: f64, seed: u64) -> Vec<f32> {
        let mut next = lcg(seed);
        // Column-correlated zeros, like a jointly pruned batch.
        let zero_col: Vec<bool> = (0..k)
            .map(|_| (next() & 0xFFFF) as f64 / 65536.0 < sparsity)
            .collect();
        (0..m * k)
            .map(|i| {
                if zero_col[i % k] {
                    0.0
                } else {
                    (next() as f32 * 0.37).sin()
                }
            })
            .collect()
    }

    /// An `m × k` state whose 64-row chunks fall on both sides of the
    /// dense-mode rule: each chunk keeps a uniformly drawn number of rows
    /// (non-zero in at least one lane), and in a kept row every other lane
    /// is zero with probability `lane_zero`. A zero is `−0` with
    /// probability `neg_zero`, else `+0`.
    fn straddling_lhs(m: usize, k: usize, lane_zero: f64, neg_zero: f64, seed: u64) -> Vec<f32> {
        let mut next = lcg(seed);
        let zero = |next: &mut dyn FnMut() -> u64| {
            if ((next() & 0xFFFF) as f64) < neg_zero * 65536.0 {
                -0.0
            } else {
                0.0
            }
        };
        let mut lhs = vec![0.0f32; m * k];
        for k0 in (0..k).step_by(64) {
            let mut rows: Vec<usize> = (k0..(k0 + 64).min(k)).collect();
            let kept = next() as usize % (rows.len() + 1);
            for j in 0..rows.len() {
                let pick = j + next() as usize % (rows.len() - j);
                rows.swap(j, pick);
            }
            for (j, &r) in rows.iter().enumerate() {
                let anchor = next() as usize % m;
                for l in 0..m {
                    let nonzero = j < kept
                        && (l == anchor || (next() & 0xFFFF) as f64 / 65536.0 >= lane_zero);
                    lhs[l * k + r] = if nonzero {
                        (next() as f32 * 0.37).sin() + 2.0
                    } else {
                        zero(&mut next)
                    };
                }
            }
        }
        lhs
    }

    /// A `k × n` weight matrix in which a quarter of the rows that are
    /// zero in some lane of `lhs` carry ±inf and NaN in every third
    /// column: a body that multiplied a zero coefficient in would turn a
    /// finite output of that lane into NaN. The other columns stay finite.
    fn poisoned_rhs(lhs: &[f32], m: usize, k: usize, n: usize, seed: u64) -> Matrix {
        let mut next = lcg(seed ^ 0x5EED);
        let poisoned: Vec<bool> = (0..k)
            .map(|r| next().is_multiple_of(4) && (0..m).any(|l| lhs[l * k + r] == 0.0))
            .collect();
        let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        Matrix::from_fn(k, n, |r, c| {
            if poisoned[r] && c % 3 == 0 {
                specials[(r + c) % 3]
            } else {
                ((r * n + c) as f32 * 0.13).sin()
            }
        })
    }

    /// The dense/sparse mode split on the states the runtime feeds it: an
    /// unpruned batch tiles; a pruned state with ~6 of 64 units alive in
    /// every lane (the f32 head on the sparse serving paths) and a state
    /// whose zeros differ per lane keep the lane-outer loop; the 3/4 fill
    /// boundary is inclusive.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn dense_mode_follows_the_coefficient_fill() {
        if !crate::simd::use_avx2() {
            return;
        }
        let dense = |lhs: &[f32], m: usize| {
            // SAFETY: AVX2 was detected just above.
            unsafe { Matrix::chunk_is_dense(lhs, m, 64, 0, 64) }
        };
        let state = |m: usize, alive: &dyn Fn(usize, usize) -> bool| -> Vec<f32> {
            (0..m * 64)
                .map(|i| if alive(i / 64, i % 64) { 0.5 } else { -0.0 })
                .collect()
        };
        assert!(dense(&state(16, &|_, _| true), 16));
        assert!(!dense(&state(16, &|_, r| r % 10 == 3), 16));
        assert!(!dense(&state(16, &|l, r| (l + r) % 2 == 0), 16));
        assert!(dense(&state(1, &|_, r| r < 48), 1));
        assert!(!dense(&state(1, &|_, r| r < 47), 1));
        let mut nan = state(1, &|_, r| r < 47);
        nan[63] = f32::NAN;
        assert!(dense(&nan, 1));
    }

    proptest! {
        /// The register-tiled dense-mode body (and the lane-outer chunks
        /// beside it): every block remainder (`m` up to 17), several
        /// 8-column strips plus a scalar tail, per-lane and joint zeros of
        /// both signs, and non-finite weights behind zero coefficients.
        #[test]
        fn tiled_dense_kernel_matches_portable_bitwise(
            m in 1usize..18,
            k in 1usize..200,
            strips in 8usize..20,
            tail in 1usize..8,
            lane_zero in 0.0f64..1.0,
            neg_zero in 0usize..3,
            seed in 0u64..1000,
        ) {
            let n = 8 * strips + tail;
            // All +0, mixed, or all −0: a body that took −0 for a non-zero
            // must meet a block whose every zero is −0.
            let lhs = straddling_lhs(m, k, lane_zero, neg_zero as f64 / 2.0, seed);
            let rhs = poisoned_rhs(&lhs, m, k, n, seed);
            let dispatched = into_carried(|out| Matrix::matmul_from_rows_into(&lhs, m, &rhs, out));
            let mut portable = Matrix::zeros(m, n);
            Matrix::matmul_rows_portable(&lhs, m, &rhs, portable.as_mut_slice());
            prop_assert_eq!((dispatched.rows(), dispatched.cols()), (m, n));
            for (a, b) in dispatched.as_slice().iter().zip(portable.as_slice()) {
                // A NaN's sign and payload are not specified by Rust's float
                // semantics (LLVM may commute `a + b` when both are NaN), so
                // a NaN only has to meet a NaN; every other value its bits.
                if b.is_nan() {
                    prop_assert!(a.is_nan(), "{} vs NaN", a);
                } else {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "{} vs {}", a, b);
                }
            }
        }

        #[test]
        fn dense_kernel_matches_portable_bitwise(
            m in 1usize..5,
            k in 1usize..80,
            n in 1usize..40,
            sparsity in 0.0f64..1.0,
            seed in 0u64..1000,
        ) {
            let lhs = masked_lhs(m, k, sparsity, seed);
            let rhs = Matrix::from_fn(k, n, |r, c| ((r * n + c) as f32 * 0.13).sin());
            let dispatched = into_carried(|out| Matrix::matmul_from_rows_into(&lhs, m, &rhs, out));
            let mut portable = Matrix::zeros(m, n);
            Matrix::matmul_rows_portable(&lhs, m, &rhs, portable.as_mut_slice());
            prop_assert_eq!((dispatched.rows(), dispatched.cols()), (m, n));
            for (a, b) in dispatched.as_slice().iter().zip(portable.as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{} vs {}", a, b);
            }
        }

        #[test]
        fn sparse_kernel_matches_portable_bitwise(
            m in 1usize..5,
            k in 1usize..80,
            n in 1usize..40,
            sparsity in 0.0f64..1.0,
            stride in 1usize..4,
            seed in 0u64..1000,
        ) {
            let lhs = masked_lhs(m, k, sparsity, seed);
            // An arbitrary strictly-increasing active set (not necessarily
            // covering the non-zeros — the kernels must agree regardless).
            let active: Vec<usize> = (0..k).step_by(stride).collect();
            let rhs = Matrix::from_fn(k, n, |r, c| ((r + c * 3) as f32 * 0.11).cos());
            let dispatched =
                into_carried(|out| Matrix::matmul_sparse_rows_from_into(&lhs, m, &rhs, &active, out));
            let mut portable = Matrix::zeros(m, n);
            Matrix::sparse_rows_portable(&lhs, m, &rhs, &active, portable.as_mut_slice());
            prop_assert_eq!((dispatched.rows(), dispatched.cols()), (m, n));
            for (a, b) in dispatched.as_slice().iter().zip(portable.as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{} vs {}", a, b);
            }
        }
    }
}
