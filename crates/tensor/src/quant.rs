//! Symmetric linear 8-bit quantization.
//!
//! The paper evaluates every task "while using an 8-bit quantization for all
//! weights and input/hidden vectors" (Section II-B), and the accelerator
//! datapath moves 8-bit weights and activations over the LPDDR4 interface
//! (Section III-B). This module provides the software model of that number
//! system: a symmetric, zero-offset linear quantizer
//! `q = clamp(round(x / scale), -127, 127)` plus quantized matrix/vector
//! containers and an integer GEMV with `i32` accumulation — the same
//! arithmetic the simulated PEs perform.

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// The quantized integer range is symmetric: `[-127, 127]`.
pub const QMAX: i32 = 127;

/// The largest `f32` below `0.5` (`0.49999997`), the rounding offset of
/// the branch-free half-away-from-zero form.
const HALF_PRED: f32 = 0.5f32.next_down();

/// Symmetric linear quantizer mapping `f32` to `i8`.
///
/// # Example
///
/// ```
/// use zskip_tensor::Quantizer;
///
/// let q = Quantizer::from_max_abs(2.0);
/// let code = q.quantize(1.0);
/// assert!((q.dequantize(code) - 1.0).abs() < q.step());
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantizer {
    scale: f32,
    /// Precomputed `1 / scale`: quantization is a multiply, not a divide
    /// (the same trick every fixed-point datapath uses — the hardware has
    /// no FP divider either).
    inv_scale: f32,
}

/// Only `scale` is persisted; `inv_scale` is derived, and deserializing
/// it would let a hand-edited blob break the `inv_scale == 1/scale`
/// invariant `quantize` relies on. Deserialization validates the scale
/// and recomputes the inverse.
impl Serialize for Quantizer {
    fn to_value(&self) -> serde::value::Value {
        serde::value::Value::Map(vec![("scale".to_string(), self.scale.to_value())])
    }
}

impl Deserialize for Quantizer {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::DeError> {
        let scale: f32 = serde::de::field(v, "scale")?;
        Quantizer::from_step(scale).map_err(serde::DeError)
    }
}

impl Quantizer {
    /// Rebuilds a quantizer from a stored step size (persistence
    /// paths: serde and model snapshots). The step is the only stored
    /// state — `inv_scale` is derived — so a round-trip through
    /// `step()` is exact. Returns a message instead of panicking when
    /// the stored value is not a positive normal float (zero,
    /// subnormal, NaN or ∞ would all poison quantization).
    pub fn from_step(step: f32) -> Result<Self, String> {
        if !step.is_normal() || step <= 0.0 {
            return Err(format!(
                "quantizer scale must be a positive normal float, got {step}"
            ));
        }
        Ok(Self {
            scale: step,
            inv_scale: 1.0 / step,
        })
    }

    /// Builds a quantizer whose full-scale value is `max_abs`.
    ///
    /// Values of magnitude `max_abs` map to ±127. A non-positive or
    /// non-finite `max_abs` falls back to 1.0 so the quantizer stays usable
    /// for all-zero tensors.
    pub fn from_max_abs(max_abs: f32) -> Self {
        let m = if max_abs.is_finite() && max_abs > 0.0 {
            max_abs
        } else {
            1.0
        };
        let scale = m / QMAX as f32;
        // A subnormal `max_abs` can underflow the division to zero or a
        // subnormal whose reciprocal overflows — either way quantization
        // would degenerate (±∞ codes, zero dequants). Fall back the same
        // way a degenerate calibration does.
        let scale = if scale.is_normal() {
            scale
        } else {
            1.0 / QMAX as f32
        };
        Self {
            scale,
            inv_scale: 1.0 / scale,
        }
    }

    /// Builds a quantizer calibrated on a slice of sample data (max-abs).
    pub fn calibrate(data: &[f32]) -> Self {
        let max = data.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        Self::from_max_abs(max)
    }

    /// The value of one least-significant bit.
    #[inline]
    pub fn step(&self) -> f32 {
        self.scale
    }

    /// Quantizes one value with round-to-nearest and saturation to
    /// `±127`. Ties round **half away from zero** (`f32::round`): `0.5`
    /// LSB becomes code `1`, `-2.5` LSB becomes `-3`. This is the state
    /// quantisation rule of the 8-bit datapath — not the ties-to-even
    /// rule [`ActivationLut::eval`](crate::ActivationLut::eval) indexes
    /// its table with. NaN maps to code `0`.
    #[inline]
    pub fn quantize(&self, x: f32) -> i8 {
        let q = (x * self.inv_scale).round();
        q.clamp(-(QMAX as f32), QMAX as f32) as i8
    }

    /// [`Self::quantize`] without the libm `roundf` call: clamp to
    /// `±127` first, then truncate `t + copysign(0.49999997, t)`. With
    /// `|t| ≤ 127` the sum's own rounding lands exactly where half-away
    /// rounding does — `n + 0.5` reaches `n + 1`, its predecessor stays
    /// below — which `floor(|t| + 0.5)` gets wrong at `0.49999997`.
    #[inline]
    pub(crate) fn quantize_trunc(&self, x: f32) -> i8 {
        let t = (x * self.inv_scale).clamp(-(QMAX as f32), QMAX as f32);
        (t + HALF_PRED.copysign(t)) as i8
    }

    /// Quantizes a whole plane: `dst[i] = quantize(src[i])`, through the
    /// branch-free form. Dispatches to the AVX2 twin through
    /// [`crate::simd::use_avx2`]; both bodies equal [`Self::quantize`]
    /// on every `f32` (pinned at every tie in this module's tests).
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` differ in length.
    pub fn quantize_into(&self, src: &[f32], dst: &mut [i8]) {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::use_avx2() {
            // SAFETY: AVX2 support was just detected.
            unsafe { self.quantize_into_avx2(src, dst) };
            return;
        }
        self.quantize_into_portable(src, dst);
    }

    /// Portable body of [`Self::quantize_into`].
    pub fn quantize_into_portable(&self, src: &[f32], dst: &mut [i8]) {
        assert_eq!(src.len(), dst.len(), "quantize_into length mismatch");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = self.quantize_trunc(s);
        }
    }

    /// AVX2 twin of [`Self::quantize_into_portable`]: eight values per
    /// iteration, `packs` down to bytes; the sub-8 tail runs the scalar
    /// form.
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX2 (the `target_feature`
    /// contract); [`Self::quantize_into`] checks via `simd::use_avx2()`
    /// before dispatching here. No other precondition — the lengths are
    /// asserted equal and every load and store is bounds-guarded.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    pub fn quantize_into_avx2(&self, src: &[f32], dst: &mut [i8]) {
        use std::arch::x86_64::*;
        assert_eq!(src.len(), dst.len(), "quantize_into length mismatch");
        let lanes = self.lanes8();
        let mut k = 0usize;
        while k + 8 <= src.len() {
            // SAFETY: `k + 8 <= len` of both slices bounds the 32-byte
            // load and the 8-byte store.
            unsafe {
                let codes = lanes.quantize(_mm256_loadu_ps(src.as_ptr().add(k)));
                let packed = QuantLanes8::pack(codes, codes);
                _mm_storel_epi64(dst.as_mut_ptr().add(k) as *mut __m128i, packed);
            }
            k += 8;
        }
        for (d, &s) in dst[k..].iter_mut().zip(&src[k..]) {
            *d = self.quantize_trunc(s);
        }
    }

    /// Broadcasts the quantisation constants for [`QuantLanes8::quantize`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    pub(crate) fn lanes8(&self) -> QuantLanes8 {
        use std::arch::x86_64::*;
        QuantLanes8 {
            inv_scale: _mm256_set1_ps(self.inv_scale),
            qmax: _mm256_set1_ps(QMAX as f32),
            neg_qmax: _mm256_set1_ps(-(QMAX as f32)),
            half_pred: _mm256_set1_ps(HALF_PRED),
            sign: _mm256_set1_ps(-0.0),
        }
    }

    /// Reconstructs the real value of a code.
    #[inline]
    pub fn dequantize(&self, q: i8) -> f32 {
        q as f32 * self.scale
    }

    /// Quantizes a slice into a fresh vector of codes.
    pub fn quantize_slice(&self, xs: &[f32]) -> Vec<i8> {
        let mut codes = vec![0i8; xs.len()];
        self.quantize_into(xs, &mut codes);
        codes
    }

    /// Dequantizes a slice of codes.
    pub fn dequantize_slice(&self, qs: &[i8]) -> Vec<f32> {
        qs.iter().map(|q| self.dequantize(*q)).collect()
    }
}

/// A [`Quantizer`] with its constants broadcast to eight lanes — what the
/// plane kernels ([`Quantizer::quantize_into_avx2`], the i8 tail in
/// [`crate::qlstm`]) hoist out of their loops.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct QuantLanes8 {
    inv_scale: std::arch::x86_64::__m256,
    qmax: std::arch::x86_64::__m256,
    neg_qmax: std::arch::x86_64::__m256,
    half_pred: std::arch::x86_64::__m256,
    sign: std::arch::x86_64::__m256,
}

#[cfg(target_arch = "x86_64")]
impl QuantLanes8 {
    /// [`Quantizer::quantize`] on eight values: codes as `i32` lanes,
    /// each within `±127`. NaN lanes are zeroed first (the scalar `as`
    /// cast maps NaN to `0`; `max`/`min` would map it to a bound).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) fn quantize(&self, v: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256i {
        use std::arch::x86_64::*;
        let t = _mm256_mul_ps(v, self.inv_scale);
        let t = _mm256_and_ps(t, _mm256_cmp_ps::<_CMP_ORD_Q>(t, t));
        let t = _mm256_min_ps(_mm256_max_ps(t, self.neg_qmax), self.qmax);
        let half = _mm256_or_ps(_mm256_and_ps(t, self.sign), self.half_pred);
        _mm256_cvttps_epi32(_mm256_add_ps(t, half))
    }

    /// Packs two vectors of codes to bytes: `a0..a7` in the low half,
    /// `b0..b7` in the high half. Codes are within `±127`, so both
    /// saturating packs are exact.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) fn pack(
        a: std::arch::x86_64::__m256i,
        b: std::arch::x86_64::__m256i,
    ) -> std::arch::x86_64::__m128i {
        use std::arch::x86_64::*;
        // `[a0..3 b0..3 | a4..7 b4..7]` as i16, then the same as bytes
        // in the low half of each 128-bit lane.
        let words = _mm256_packs_epi32(a, b);
        let bytes = _mm256_packs_epi16(words, words);
        _mm_unpacklo_epi32(
            _mm256_castsi256_si128(bytes),
            _mm256_extracti128_si256::<1>(bytes),
        )
    }
}

/// A quantized vector: `i8` codes plus the [`Quantizer`] that produced them.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QVector {
    codes: Vec<i8>,
    quantizer: Quantizer,
}

impl QVector {
    /// Quantizes `values` with a max-abs calibrated quantizer.
    pub fn from_f32(values: &[f32]) -> Self {
        let quantizer = Quantizer::calibrate(values);
        Self {
            codes: quantizer.quantize_slice(values),
            quantizer,
        }
    }

    /// Quantizes `values` with the provided quantizer.
    pub fn with_quantizer(values: &[f32], quantizer: Quantizer) -> Self {
        Self {
            codes: quantizer.quantize_slice(values),
            quantizer,
        }
    }

    /// The `i8` codes.
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// The quantizer used for these codes.
    pub fn quantizer(&self) -> Quantizer {
        self.quantizer
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Returns `true` when the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Dequantizes back to `f32`.
    pub fn to_f32(&self) -> Vec<f32> {
        self.quantizer.dequantize_slice(&self.codes)
    }

    /// Fraction of codes that are exactly zero.
    pub fn sparsity(&self) -> f64 {
        if self.codes.is_empty() {
            return 0.0;
        }
        let z = self.codes.iter().filter(|c| **c == 0).count();
        z as f64 / self.codes.len() as f64
    }
}

/// A quantized row-major matrix of `i8` codes.
///
/// Used for LSTM weights on the simulated accelerator: each weight is one
/// byte of LPDDR4 traffic, and each MAC is an `i8 × i8 → i32` operation.
///
/// **Invariant:** every code lies in the symmetric range `[-127, 127]` —
/// the quantizer never emits `-128`, and deserialization rejects it. The
/// AVX2 kernels rely on this: with `|w| ≤ 127` and an arbitrary `i8`
/// state code (`|v| ≤ 128`), a pair of products fits `i16` exactly
/// (`2 · 127 · 128 = 32512 < 32767`).
#[derive(Clone, Debug, PartialEq)]
pub struct QMatrix {
    rows: usize,
    cols: usize,
    codes: Vec<i8>,
    quantizer: Quantizer,
}

impl Serialize for QMatrix {
    fn to_value(&self) -> serde::value::Value {
        serde::value::Value::Map(vec![
            ("rows".to_string(), self.rows.to_value()),
            ("cols".to_string(), self.cols.to_value()),
            ("codes".to_string(), self.codes.to_value()),
            ("quantizer".to_string(), self.quantizer.to_value()),
        ])
    }
}

/// Validating deserialization: shape and the symmetric code range are
/// structural invariants (see the type docs), so a hand-edited blob
/// cannot smuggle in a `-128` code or a mismatched length.
impl Deserialize for QMatrix {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::DeError> {
        let rows: usize = serde::de::field(v, "rows")?;
        let cols: usize = serde::de::field(v, "cols")?;
        let codes: Vec<i8> = serde::de::field(v, "codes")?;
        let quantizer: Quantizer = serde::de::field(v, "quantizer")?;
        QMatrix::from_parts(rows, cols, codes, quantizer).map_err(serde::DeError)
    }
}

impl QMatrix {
    /// Rebuilds a quantized matrix from stored parts (persistence
    /// paths: serde and model snapshots), keeping the stored codes and
    /// step bit-exact. Returns a message instead of panicking when the
    /// code count disagrees with the shape or a code sits outside the
    /// symmetric range `[-127, 127]` (the kernels assume −128 never
    /// appears, so a corrupted stream must not smuggle one in).
    pub fn from_parts(
        rows: usize,
        cols: usize,
        codes: Vec<i8>,
        quantizer: Quantizer,
    ) -> Result<Self, String> {
        if codes.len() != rows * cols {
            return Err(format!(
                "qmatrix code count {} does not match {rows}x{cols}",
                codes.len()
            ));
        }
        if codes.contains(&i8::MIN) {
            return Err(
                "qmatrix code -128 outside the symmetric quantized range [-127, 127]".to_string(),
            );
        }
        Ok(Self {
            rows,
            cols,
            codes,
            quantizer,
        })
    }

    /// Whether the transposed products (`gemv_t_i32` / `gemm_t_i32*`)
    /// can accumulate in `i32` without wrapping: each of the `rows`
    /// terms is at most `127 · 128` in magnitude (weight codes obey the
    /// type invariant, state codes are any `i8`). Returns a message for
    /// loaders to wrap in their typed error. The bound is 132 104 rows.
    pub fn check_gemm_t_acc(&self) -> Result<(), String> {
        if self.rows > i32::MAX as usize / (QMAX as usize * 128) {
            return Err(format!(
                "{} rows of |code product| <= {} can overflow the i32 accumulator",
                self.rows,
                QMAX * 128
            ));
        }
        Ok(())
    }

    /// Quantizes a dense matrix with max-abs calibration over all entries.
    pub fn from_matrix(m: &Matrix) -> Self {
        let quantizer = Quantizer::calibrate(m.as_slice());
        Self {
            rows: m.rows(),
            cols: m.cols(),
            codes: quantizer.quantize_slice(m.as_slice()),
            quantizer,
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

    /// The quantizer used for the codes.
    pub fn quantizer(&self) -> Quantizer {
        self.quantizer
    }

    /// Borrows the full row-major code storage (`rows * cols` entries)
    /// — the persistence view used by model snapshots.
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// Borrows row `r` of codes.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[i8] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.codes[r * self.cols..(r + 1) * self.cols]
    }

    /// Code at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> i8 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.codes[r * self.cols + c]
    }

    /// Dequantizes the whole matrix back to `f32`.
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.quantizer.dequantize_slice(&self.codes),
        )
    }

    /// Integer GEMV: `y[r] = Σ_c w[r,c] · x[c]` with `i32` accumulation.
    ///
    /// Returns raw `i32` accumulator values; the caller applies the combined
    /// scale `w_scale · x_scale` to recover real values, exactly as the
    /// accelerator's requantization stage does.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn gemv_i32(&self, x: &[i8]) -> Vec<i32> {
        assert_eq!(x.len(), self.cols, "gemv_i32 dimension mismatch");
        let mut y = vec![0i32; self.rows];
        for (r, out) in y.iter_mut().enumerate() {
            let row = &self.codes[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0i32;
            for (w, v) in row.iter().zip(x) {
                acc += (*w as i32) * (*v as i32);
            }
            *out = acc;
        }
        y
    }

    /// Transposed integer GEMV: `y[c] = Σ_r x[r] · w[r,c]` with `i32`
    /// accumulation (i.e. `xᵀ·W`, length `cols`).
    ///
    /// This is the orientation the LSTM recurrence uses with `Wh` stored
    /// `dh × 4dh`: the state indexes rows, gates index columns.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn gemv_t_i32(&self, x: &[i8]) -> Vec<i32> {
        assert_eq!(x.len(), self.rows, "gemv_t_i32 dimension mismatch");
        self.gemm_t_i32(x, 1)
    }

    /// Like [`Self::gemv_t_i32`] but reads only the weight rows listed in
    /// `active` — the integer twin of
    /// `Matrix::matmul_sparse_rows`: rows of the stored matrix whose
    /// state code is zero in the offset encoding are never touched, so at
    /// joint sparsity `s` only `(1-s)·rows` weight rows are streamed.
    ///
    /// The result is **bit-identical** to [`Self::gemv_t_i32`] whenever
    /// `active` covers every index `r` with `x[r] != 0`: skipped terms
    /// contribute exact zeros and `i32` addition is associative, so no
    /// accumulation-order caveat is even needed.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()` or if `active` is not strictly
    /// increasing and within `0..self.rows()`.
    pub fn gemv_t_i32_sparse_rows(&self, x: &[i8], active: &[usize]) -> Vec<i32> {
        self.gemm_t_i32_sparse_rows(x, 1, active)
    }

    /// Batched transposed integer GEMV: `lanes` state vectors stacked
    /// row-major in `x` (`lanes × rows`), producing `lanes × cols`
    /// accumulators row-major. Bit-identical to calling
    /// [`Self::gemv_t_i32`] per lane.
    ///
    /// On x86-64 with AVX2 (runtime-detected) the same loop is compiled
    /// with 256-bit vectors — the widening `i8×i8→i32` multiply does not
    /// vectorize at the baseline target, so the portable body is ~4×
    /// slower than the feature-gated twin. The result is identical
    /// either way: integer arithmetic has no rounding to reorder.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != lanes * self.rows()`.
    pub fn gemm_t_i32(&self, x: &[i8], lanes: usize) -> Vec<i32> {
        let mut y = Vec::new();
        self.gemm_t_i32_into(x, lanes, &mut y);
        y
    }

    /// [`Self::gemm_t_i32`] writing into a caller-provided accumulator
    /// vector (cleared and resized to `lanes × cols`, allocation-free
    /// once its capacity fits) — the quantized serving family's scratch
    /// buffers step through here.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != lanes * self.rows()`.
    pub fn gemm_t_i32_into(&self, x: &[i8], lanes: usize, out: &mut Vec<i32>) {
        assert_eq!(x.len(), lanes * self.rows, "gemm_t_i32 dimension mismatch");
        out.clear();
        out.resize(lanes * self.cols, 0);
        #[cfg(target_arch = "x86_64")]
        if crate::simd::use_avx2() {
            // SAFETY: the only precondition of the `target_feature` twin
            // is that AVX2 is available, which was just detected; the
            // function body itself is safe code.
            unsafe { self.gemm_t_i32_avx2(x, lanes, out) };
            return;
        }
        self.gemm_t_i32_portable(x, lanes, out);
    }

    /// Batched form of [`Self::gemv_t_i32_sparse_rows`]: `lanes` state
    /// vectors stacked row-major in `x` (`lanes × rows`), reading only
    /// the weight rows in `active`; returns `lanes × cols` accumulators.
    ///
    /// Row-blocked accumulation: per output lane, the non-zero
    /// (code, weight-row) pairs of each 64-row chunk are gathered and
    /// **four weight rows accumulate per pass** over the output row, so
    /// the `i32` output row is loaded/stored once per four rows. Integer
    /// addition is associative, so the blocking is bit-free — the result
    /// equals the naive loop (and the dense product, when `active`
    /// covers every non-zero) exactly, not just approximately. Like
    /// [`Self::gemm_t_i32`], the kernel dispatches to an AVX2-compiled
    /// twin of the same loop when the CPU supports it.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != lanes * self.rows()` or if `active` is not
    /// strictly increasing and within `0..self.rows()`.
    pub fn gemm_t_i32_sparse_rows(&self, x: &[i8], lanes: usize, active: &[usize]) -> Vec<i32> {
        let mut y = Vec::new();
        self.gemm_t_i32_sparse_rows_into(x, lanes, active, &mut y);
        y
    }

    /// [`Self::gemm_t_i32_sparse_rows`] writing into a caller-provided
    /// accumulator vector (cleared and resized to `lanes × cols`,
    /// allocation-free once its capacity fits).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != lanes * self.rows()` or if `active` is not
    /// strictly increasing and within `0..self.rows()`.
    pub fn gemm_t_i32_sparse_rows_into(
        &self,
        x: &[i8],
        lanes: usize,
        active: &[usize],
        out: &mut Vec<i32>,
    ) {
        assert_eq!(
            x.len(),
            lanes * self.rows,
            "gemm_t_i32_sparse_rows dimension mismatch"
        );
        assert!(
            active.windows(2).all(|w| w[0] < w[1]),
            "active rows must be strictly increasing"
        );
        if let Some(&last) = active.last() {
            assert!(last < self.rows, "active row {last} out of bounds");
        }
        out.clear();
        out.resize(lanes * self.cols, 0);
        #[cfg(target_arch = "x86_64")]
        if crate::simd::use_avx2() {
            // SAFETY: as in `gemm_t_i32_into` — AVX2 was just detected
            // and the twin's body is safe code.
            unsafe { self.gemm_t_i32_sparse_rows_avx2(x, lanes, active, out) };
            return;
        }
        self.gemm_t_i32_sparse_rows_portable(x, lanes, active, out);
    }

    /// Like [`Self::gemv_i32`] but skips columns where `x[c] == 0`,
    /// mirroring the accelerator's zero-state skipping. The result is
    /// bit-identical to the dense product (skipped terms contribute zero).
    pub fn gemv_i32_skip_zero(&self, x: &[i8]) -> Vec<i32> {
        assert_eq!(x.len(), self.cols, "gemv dimension mismatch");
        let mut y = vec![0i32; self.rows];
        for (c, &v) in x.iter().enumerate() {
            if v == 0 {
                continue;
            }
            for (r, out) in y.iter_mut().enumerate() {
                *out += (self.codes[r * self.cols + c] as i32) * (v as i32);
            }
        }
        y
    }
}

/// Portable transposed-GEMV kernel bodies. The widening `i8×i8→i32`
/// multiply does not vectorize at the baseline x86-64 target, so these
/// run ~4× slower than the AVX2 twins below — but they run everywhere
/// and compute the identical result (integer arithmetic is exact).
impl QMatrix {
    fn gemm_t_i32_portable(&self, x: &[i8], lanes: usize, y: &mut [i32]) {
        let n = self.cols;
        for lane in 0..lanes {
            let xs = &x[lane * self.rows..(lane + 1) * self.rows];
            let out = &mut y[lane * n..(lane + 1) * n];
            for (r, &v) in xs.iter().enumerate() {
                if v == 0 {
                    continue;
                }
                let row = &self.codes[r * n..(r + 1) * n];
                for (o, w) in out.iter_mut().zip(row) {
                    *o += (*w as i32) * (v as i32);
                }
            }
        }
    }

    /// Row-blocked portable body: per output lane, gather the non-zero
    /// (code, weight-row) pairs of each 64-row chunk and accumulate four
    /// weight rows per pass over the output row, so the `i32` output row
    /// is loaded/stored once per four rows.
    fn gemm_t_i32_sparse_rows_portable(
        &self,
        x: &[i8],
        lanes: usize,
        active: &[usize],
        y: &mut [i32],
    ) {
        let n = self.cols;
        const KB: usize = 64;
        let mut coeff = [0i32; KB];
        let mut wrow = [0usize; KB];
        for chunk in active.chunks(KB) {
            for lane in 0..lanes {
                let xs = &x[lane * self.rows..(lane + 1) * self.rows];
                let out = &mut y[lane * n..(lane + 1) * n];
                let mut cnt = 0usize;
                for &r in chunk {
                    let v = xs[r];
                    if v != 0 {
                        coeff[cnt] = v as i32;
                        wrow[cnt] = r;
                        cnt += 1;
                    }
                }
                let mut p = 0usize;
                while p + 4 <= cnt {
                    let (a0, a1, a2, a3) = (coeff[p], coeff[p + 1], coeff[p + 2], coeff[p + 3]);
                    let b0 = &self.codes[wrow[p] * n..wrow[p] * n + n];
                    let b1 = &self.codes[wrow[p + 1] * n..wrow[p + 1] * n + n];
                    let b2 = &self.codes[wrow[p + 2] * n..wrow[p + 2] * n + n];
                    let b3 = &self.codes[wrow[p + 3] * n..wrow[p + 3] * n + n];
                    for ((((o, w0), w1), w2), w3) in out.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                    {
                        *o += a0 * (*w0 as i32)
                            + a1 * (*w1 as i32)
                            + a2 * (*w2 as i32)
                            + a3 * (*w3 as i32);
                    }
                    p += 4;
                }
                while p < cnt {
                    let a = coeff[p];
                    let row = &self.codes[wrow[p] * n..wrow[p] * n + n];
                    for (o, w) in out.iter_mut().zip(row) {
                        *o += a * (*w as i32);
                    }
                    p += 1;
                }
            }
        }
    }
}

/// AVX2 twins of the transposed-GEMV kernels. Four weight rows are
/// accumulated per pass over the output row: each `i8×i8` product is
/// exact in `i16` (weight codes obey the [`QMatrix`] invariant
/// `|w| ≤ 127`, state codes are at worst `-128`, so `|v·w| ≤ 16256`),
/// and the sum of **two** such products still fits
/// (`≤ 32512 < 32767`), so pairs of rows are summed with 16-wide 16-bit
/// multiplies before widening to `i32` — twice the lanes of the naive
/// widening multiply, with no value ever truncated. Integer addition is
/// associative, so the result is bit-identical to the portable kernels
/// (pinned by `dispatched_kernels_match_portable_bitwise`).
#[cfg(target_arch = "x86_64")]
impl QMatrix {
    #[target_feature(enable = "avx2")]
    fn gemm_t_i32_avx2(&self, x: &[i8], lanes: usize, y: &mut [i32]) {
        // Candidate rows come in 64-row windows filtered on the stack —
        // no heap index list (the allocation-free shape the portable
        // sparse body uses too).
        let mut window = [0usize; 64];
        for start in (0..self.rows).step_by(window.len()) {
            let len = window.len().min(self.rows - start);
            for (i, w) in window[..len].iter_mut().enumerate() {
                *w = start + i;
            }
            // Lanes inside chunks: each (lane, chunk) unit is independent
            // and i32 addition is associative, so the interchange is
            // bit-free — and the window fill happens once per chunk, not
            // once per lane.
            for lane in 0..lanes {
                let xs = &x[lane * self.rows..(lane + 1) * self.rows];
                let out = &mut y[lane * self.cols..(lane + 1) * self.cols];
                Self::accumulate_rows_avx2(&self.codes, self.cols, xs, &window[..len], out);
            }
        }
    }

    #[target_feature(enable = "avx2")]
    fn gemm_t_i32_sparse_rows_avx2(&self, x: &[i8], lanes: usize, active: &[usize], y: &mut [i32]) {
        for lane in 0..lanes {
            let xs = &x[lane * self.rows..(lane + 1) * self.rows];
            let out = &mut y[lane * self.cols..(lane + 1) * self.cols];
            for chunk in active.chunks(64) {
                Self::accumulate_rows_avx2(&self.codes, self.cols, xs, chunk, out);
            }
        }
    }

    /// `out[c] += Σ_{r ∈ candidates, xs[r] ≠ 0} xs[r] · codes[r·n + c]`
    /// for one lane; zero-code candidates are filtered into a stack
    /// array here (≤ 64 candidates per call).
    ///
    /// Invariants (upheld by the public callers): every candidate `r` is
    /// `< codes.len() / n` and `candidates.len() ≤ 64`; `out.len() == n`
    /// is asserted, since the unsafe column loop relies on it.
    #[target_feature(enable = "avx2")]
    fn accumulate_rows_avx2(
        codes: &[i8],
        n: usize,
        xs: &[i8],
        candidates: &[usize],
        out: &mut [i32],
    ) {
        use std::arch::x86_64::*;
        assert_eq!(out.len(), n, "output row length mismatch");
        let mut nz_buf = [0usize; 64];
        let mut cnt = 0usize;
        for &r in candidates {
            if xs[r] != 0 {
                nz_buf[cnt] = r;
                cnt += 1;
            }
        }
        let nz = &nz_buf[..cnt];
        let mut p = 0usize;
        while p + 4 <= nz.len() {
            let rs = [nz[p], nz[p + 1], nz[p + 2], nz[p + 3]];
            let vv = [
                _mm256_set1_epi16(xs[rs[0]] as i16),
                _mm256_set1_epi16(xs[rs[1]] as i16),
                _mm256_set1_epi16(xs[rs[2]] as i16),
                _mm256_set1_epi16(xs[rs[3]] as i16),
            ];
            let r0 = &codes[rs[0] * n..rs[0] * n + n];
            let r1 = &codes[rs[1] * n..rs[1] * n + n];
            let r2 = &codes[rs[2] * n..rs[2] * n + n];
            let r3 = &codes[rs[3] * n..rs[3] * n + n];
            let mut c = 0usize;
            while c + 16 <= n {
                // SAFETY: `c + 16 <= n` bounds every 16-byte weight load
                // within its row slice and both 8-lane i32 load/stores
                // within `out` (len == n, checked above).
                unsafe {
                    let w0 =
                        _mm256_cvtepi8_epi16(_mm_loadu_si128(r0.as_ptr().add(c) as *const __m128i));
                    let w1 =
                        _mm256_cvtepi8_epi16(_mm_loadu_si128(r1.as_ptr().add(c) as *const __m128i));
                    let w2 =
                        _mm256_cvtepi8_epi16(_mm_loadu_si128(r2.as_ptr().add(c) as *const __m128i));
                    let w3 =
                        _mm256_cvtepi8_epi16(_mm_loadu_si128(r3.as_ptr().add(c) as *const __m128i));
                    let s01 = _mm256_add_epi16(
                        _mm256_mullo_epi16(w0, vv[0]),
                        _mm256_mullo_epi16(w1, vv[1]),
                    );
                    let s23 = _mm256_add_epi16(
                        _mm256_mullo_epi16(w2, vv[2]),
                        _mm256_mullo_epi16(w3, vv[3]),
                    );
                    let lo = _mm256_add_epi32(
                        _mm256_cvtepi16_epi32(_mm256_castsi256_si128(s01)),
                        _mm256_cvtepi16_epi32(_mm256_castsi256_si128(s23)),
                    );
                    let hi = _mm256_add_epi32(
                        _mm256_cvtepi16_epi32(_mm256_extracti128_si256(s01, 1)),
                        _mm256_cvtepi16_epi32(_mm256_extracti128_si256(s23, 1)),
                    );
                    let yp = out.as_mut_ptr().add(c) as *mut __m256i;
                    _mm256_storeu_si256(
                        yp,
                        _mm256_add_epi32(_mm256_loadu_si256(yp as *const _), lo),
                    );
                    let yp2 = out.as_mut_ptr().add(c + 8) as *mut __m256i;
                    _mm256_storeu_si256(
                        yp2,
                        _mm256_add_epi32(_mm256_loadu_si256(yp2 as *const _), hi),
                    );
                }
                c += 16;
            }
            while c < n {
                out[c] += xs[rs[0]] as i32 * (r0[c] as i32)
                    + xs[rs[1]] as i32 * (r1[c] as i32)
                    + xs[rs[2]] as i32 * (r2[c] as i32)
                    + xs[rs[3]] as i32 * (r3[c] as i32);
                c += 1;
            }
            p += 4;
        }
        while p < nz.len() {
            let r = nz[p];
            let v = xs[r] as i32;
            let row = &codes[r * n..(r + 1) * n];
            for (o, w) in out.iter_mut().zip(row) {
                *o += v * (*w as i32);
            }
            p += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantizer_round_trip_error_bounded_by_half_step() {
        let q = Quantizer::from_max_abs(3.0);
        for i in -300..=300 {
            let x = i as f32 / 100.0;
            let err = (q.dequantize(q.quantize(x)) - x).abs();
            assert!(err <= q.step() / 2.0 + 1e-6, "x={x} err={err}");
        }
    }

    /// Every input the branch-free rounding could get wrong: ±4 ulp
    /// around each half-integer tie out past the clamp, plus signed
    /// zeros, the saturation edges, far-out values and non-finites —
    /// in LSB units, scaled by `step` below.
    fn rounding_probes() -> Vec<f32> {
        let mut probes = vec![
            0.0,
            -0.0,
            127.5,
            -127.5,
            1e9,
            -1e9,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for k in -129..=129 {
            for tie in [k as f32 - 0.5, k as f32 + 0.5] {
                let (mut down, mut up) = (tie, tie);
                probes.push(tie);
                for _ in 0..4 {
                    down = down.next_down();
                    up = up.next_up();
                    probes.extend([down, up]);
                }
            }
        }
        probes
    }

    #[test]
    fn plane_quantize_matches_scalar_round_at_every_tie() {
        assert_eq!(HALF_PRED.to_bits(), 0.499_999_97f32.to_bits());
        // Step 1.0 makes `x * inv_scale` the probe itself, so the ties
        // are hit exactly; the other steps approach them through the
        // multiply the datapath really performs.
        for q in [
            Quantizer::from_step(1.0).unwrap(),
            Quantizer::from_max_abs(1.0),
            Quantizer::from_max_abs(4.0),
        ] {
            let src: Vec<f32> = rounding_probes().iter().map(|t| t * q.step()).collect();
            let want: Vec<i8> = src.iter().map(|x| q.quantize(*x)).collect();
            let mut got = vec![i8::MIN; src.len()];
            q.quantize_into_portable(&src, &mut got);
            assert_eq!(got, want, "portable body, step {}", q.step());
            got.fill(i8::MIN);
            q.quantize_into(&src, &mut got);
            assert_eq!(got, want, "dispatched body, step {}", q.step());
            #[cfg(target_arch = "x86_64")]
            if crate::simd::use_avx2() {
                // Every alignment of the 8-wide loop against its tail.
                for skip in 0..8 {
                    got.fill(i8::MIN);
                    // SAFETY: AVX2 detected above.
                    unsafe { q.quantize_into_avx2(&src[skip..], &mut got[skip..]) };
                    assert_eq!(got[skip..], want[skip..], "avx2 twin, step {}", q.step());
                }
            }
        }
    }

    #[test]
    fn quantizer_saturates_out_of_range() {
        let q = Quantizer::from_max_abs(1.0);
        assert_eq!(q.quantize(10.0), 127);
        assert_eq!(q.quantize(-10.0), -127);
    }

    #[test]
    fn quantizer_handles_degenerate_calibration() {
        let q = Quantizer::calibrate(&[0.0, 0.0]);
        assert_eq!(q.quantize(0.0), 0);
        assert!(q.step() > 0.0);
    }

    #[test]
    fn zero_maps_to_zero_code() {
        // The skipping scheme depends on pruned states quantizing to an
        // exact zero code; symmetric quantization guarantees it.
        let q = Quantizer::from_max_abs(5.0);
        assert_eq!(q.quantize(0.0), 0);
        assert_eq!(q.dequantize(0), 0.0);
    }

    #[test]
    fn qvector_sparsity_reflects_zero_codes() {
        let v = QVector::from_f32(&[0.0, 1.0, 0.0, -1.0]);
        assert_eq!(v.sparsity(), 0.5);
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn qmatrix_gemv_matches_float_within_quant_error() {
        let m = Matrix::from_fn(8, 8, |r, c| ((r * 13 + c * 7) % 11) as f32 / 11.0 - 0.5);
        let x: Vec<f32> = (0..8).map(|i| (i as f32 / 8.0) - 0.4).collect();
        let qm = QMatrix::from_matrix(&m);
        let qx = QVector::from_f32(&x);
        let acc = qm.gemv_i32(qx.codes());
        let scale = qm.quantizer().step() * qx.quantizer().step();
        let approx: Vec<f32> = acc.iter().map(|a| *a as f32 * scale).collect();
        let exact = m.gemv(&x);
        for (a, e) in approx.iter().zip(&exact) {
            assert!((a - e).abs() < 0.05, "{a} vs {e}");
        }
    }

    #[test]
    fn skip_zero_gemv_is_bit_identical_to_dense() {
        let m = Matrix::from_fn(6, 10, |r, c| ((r + c) % 5) as f32 - 2.0);
        let qm = QMatrix::from_matrix(&m);
        let x: Vec<i8> = vec![0, 3, 0, 0, -7, 0, 0, 0, 9, 0];
        assert_eq!(qm.gemv_i32(&x), qm.gemv_i32_skip_zero(&x));
    }

    #[test]
    fn gemv_t_matches_explicit_transpose() {
        let m = Matrix::from_fn(7, 5, |r, c| ((r * 5 + c) as f32 * 0.19).sin());
        let qm = QMatrix::from_matrix(&m);
        let x: Vec<i8> = vec![1, 0, -3, 7, 0, 2, 5];
        let fast = qm.gemv_t_i32(&x);
        // Slow path: transpose the float matrix, re-quantize row-major.
        let mut slow = vec![0i32; 5];
        for (c, out) in slow.iter_mut().enumerate() {
            for (r, xv) in x.iter().enumerate() {
                *out += qm.get(r, c) as i32 * *xv as i32;
            }
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn from_max_abs_survives_subnormal_calibration() {
        // Regression: a subnormal max_abs used to underflow `m / 127` to a
        // zero scale, making quantize() divide by zero (±∞ → ±127 codes
        // for *every* non-zero input, and dequantize collapse to 0).
        let tiny = f32::from_bits(1); // smallest positive subnormal
        let q = Quantizer::from_max_abs(tiny);
        assert!(q.step() > 0.0, "scale underflowed to zero");
        assert_eq!(q.quantize(0.0), 0);
        assert!(q.dequantize(q.quantize(0.5)).is_finite());
    }

    #[test]
    fn extreme_codes_round_trip_without_clamp_asymmetry() {
        // quantize(dequantize(q)) must be the identity on the full code
        // range, including the saturated endpoints — the negative end must
        // not land on -128 or clip short of -127.
        for max_abs in [1.0f32, 0.37, 4.0, 1000.0] {
            let q = Quantizer::from_max_abs(max_abs);
            for code in [-127i8, -1, 0, 1, 127] {
                assert_eq!(q.quantize(q.dequantize(code)), code, "max_abs={max_abs}");
            }
            // Full-scale values hit exactly ±QMAX.
            assert_eq!(q.quantize(max_abs), QMAX as i8);
            assert_eq!(q.quantize(-max_abs), -(QMAX as i8));
        }
    }

    #[test]
    fn saturation_clamps_to_qmax_symmetrically() {
        let q = Quantizer::from_max_abs(0.5);
        for x in [0.5001f32, 1.0, 1e20, f32::MAX] {
            assert_eq!(q.quantize(x), QMAX as i8, "x={x}");
            assert_eq!(q.quantize(-x), -(QMAX as i8), "x={x}");
        }
    }

    #[test]
    fn gemv_t_sparse_rows_matches_dense_on_covering_active_set() {
        let m = Matrix::from_fn(12, 9, |r, c| ((r * 9 + c) as f32 * 0.23).sin());
        let qm = QMatrix::from_matrix(&m);
        let x: Vec<i8> = vec![0, 5, 0, -3, 0, 0, 127, 0, -127, 0, 1, 0];
        let active: Vec<usize> = (0..12).filter(|r| x[*r] != 0).collect();
        assert_eq!(qm.gemv_t_i32_sparse_rows(&x, &active), qm.gemv_t_i32(&x));
        // A superset of the non-zero rows is equally exact.
        let all: Vec<usize> = (0..12).collect();
        assert_eq!(qm.gemv_t_i32_sparse_rows(&x, &all), qm.gemv_t_i32(&x));
    }

    #[test]
    fn gemv_t_sparse_rows_empty_active_set_is_zero() {
        let m = Matrix::from_fn(4, 6, |_, _| 1.0);
        let qm = QMatrix::from_matrix(&m);
        let x: Vec<i8> = vec![1, 2, 3, 4];
        assert_eq!(qm.gemv_t_i32_sparse_rows(&x, &[]), vec![0i32; 6]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn gemv_t_sparse_rows_rejects_unsorted_active_set() {
        let qm = QMatrix::from_matrix(&Matrix::zeros(3, 2));
        let _ = qm.gemv_t_i32_sparse_rows(&[1, 1, 1], &[2, 0]);
    }

    #[test]
    fn dispatched_kernels_match_portable_bitwise() {
        // On machines with AVX2 the public methods take the
        // `target_feature` twin; it must agree with the portable body to
        // the bit (it is the same source — this pins the dispatch).
        let m = Matrix::from_fn(33, 17, |r, c| ((r * 17 + c) as f32 * 0.29).sin());
        let qm = QMatrix::from_matrix(&m);
        let x: Vec<i8> = (0..2 * 33)
            .map(|i| {
                if i % 3 == 0 {
                    0
                } else {
                    ((i * 29) % 255) as i8
                }
            })
            .collect();
        let active: Vec<usize> = (0..33).step_by(2).collect();
        let mut dense = vec![0i32; 2 * 17];
        qm.gemm_t_i32_portable(&x, 2, &mut dense);
        assert_eq!(qm.gemm_t_i32(&x, 2), dense);
        let mut sparse = vec![0i32; 2 * 17];
        qm.gemm_t_i32_sparse_rows_portable(&x, 2, &active, &mut sparse);
        assert_eq!(qm.gemm_t_i32_sparse_rows(&x, 2, &active), sparse);
    }

    #[test]
    fn batched_gemm_t_matches_per_lane_gemv_t() {
        let m = Matrix::from_fn(7, 5, |r, c| ((r * 5 + c) as f32 * 0.19).sin());
        let qm = QMatrix::from_matrix(&m);
        let lanes: Vec<Vec<i8>> = vec![
            vec![1, 0, -3, 7, 0, 2, 5],
            vec![0, 0, 0, 0, 0, 0, 0],
            vec![-128, 127, 1, -1, 0, 64, -64],
        ];
        let flat: Vec<i8> = lanes.iter().flatten().copied().collect();
        let batched = qm.gemm_t_i32(&flat, 3);
        let active: Vec<usize> = (0..7)
            .filter(|r| lanes.iter().any(|l| l[*r] != 0))
            .collect();
        let sparse = qm.gemm_t_i32_sparse_rows(&flat, 3, &active);
        for (lane, x) in lanes.iter().enumerate() {
            let reference = qm.gemv_t_i32(x);
            assert_eq!(&batched[lane * 5..(lane + 1) * 5], &reference[..]);
            assert_eq!(&sparse[lane * 5..(lane + 1) * 5], &reference[..]);
        }
    }

    #[test]
    fn serde_round_trips_and_recomputes_derived_fields() {
        let q = Quantizer::from_max_abs(0.7);
        assert_eq!(Quantizer::from_value(&q.to_value()), Ok(q));

        let m = QMatrix::from_matrix(&Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 - 5.0));
        assert_eq!(QMatrix::from_value(&m.to_value()), Ok(m));
    }

    #[test]
    fn serde_rejects_invariant_violations() {
        use serde::value::Value;
        // A non-positive scale would poison quantize/dequantize.
        let bad_scale = Value::Map(vec![("scale".to_string(), Value::Float(0.0))]);
        assert!(Quantizer::from_value(&bad_scale).is_err());

        // Code -128 breaks the symmetric range the AVX2 pair-sum kernel
        // relies on; a shape mismatch breaks row indexing.
        let good = QMatrix::from_matrix(&Matrix::from_fn(2, 2, |r, c| (r + c) as f32));
        let mend = |codes: Vec<i8>, rows: i128| {
            Value::Map(vec![
                ("rows".to_string(), Value::Int(rows)),
                ("cols".to_string(), Value::Int(2)),
                ("codes".to_string(), codes.to_value()),
                ("quantizer".to_string(), good.quantizer().to_value()),
            ])
        };
        assert!(QMatrix::from_value(&mend(vec![0, 1, -128, 2], 2)).is_err());
        assert!(QMatrix::from_value(&mend(vec![0, 1, 2], 2)).is_err());
        assert!(QMatrix::from_value(&mend(vec![0, 1, 2, 3], 2)).is_ok());
    }

    #[test]
    fn qmatrix_round_trips_shape() {
        let m = Matrix::from_fn(3, 5, |r, c| (r as f32) - (c as f32) / 2.0);
        let qm = QMatrix::from_matrix(&m);
        let back = qm.to_matrix();
        assert_eq!(back.rows(), 3);
        assert_eq!(back.cols(), 5);
    }
}
