//! Sigmoid and tanh: `f32` reference implementations and the table-based
//! approximations the accelerator tiles use.
//!
//! Each of the accelerator's first three tiles carries a sigmoid unit and
//! the fourth a tanh unit (Section III-B, Fig. 6). Hardware non-linearities
//! are implemented as lookup tables over a clamped input range; this module
//! models that with a configurable-resolution [`ActivationLut`] so the
//! functional simulation reproduces the same (small) approximation error a
//! real tile would exhibit.

use serde::{Deserialize, Serialize};

/// Reference logistic sigmoid `1 / (1 + e^{-x})`.
///
/// # Example
///
/// ```
/// assert!((zskip_tensor::sigmoid(0.0) - 0.5).abs() < 1e-7);
/// ```
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Reference hyperbolic tangent.
///
/// # Example
///
/// ```
/// assert_eq!(zskip_tensor::tanh(0.0), 0.0);
/// ```
pub fn tanh(x: f32) -> f32 {
    x.tanh()
}

/// Which non-linearity a lookup table approximates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activation {
    /// Logistic sigmoid, output in `(0, 1)`.
    Sigmoid,
    /// Hyperbolic tangent, output in `(-1, 1)`.
    Tanh,
}

impl Activation {
    /// Evaluates the exact function.
    pub fn eval(&self, x: f32) -> f32 {
        match self {
            Activation::Sigmoid => sigmoid(x),
            Activation::Tanh => tanh(x),
        }
    }
}

/// A uniform lookup table over `[-range, range]` with linear interpolation
/// disabled (plain nearest-entry lookup, as a small hardware ROM would do).
///
/// Inputs outside the range clamp to the saturated function value, which is
/// accurate because both sigmoid and tanh are flat in their tails.
///
/// # Example
///
/// ```
/// use zskip_tensor::ActivationLut;
/// use zskip_tensor::lut::Activation;
///
/// let lut = ActivationLut::new(Activation::Tanh, 8.0, 1024);
/// assert!((lut.eval(0.3) - 0.3f32.tanh()).abs() < 0.02);
/// ```
#[derive(Clone, Debug)]
pub struct ActivationLut {
    activation: Activation,
    range: f32,
    /// Precomputed `(entries - 1) / (2 · range)`: one multiply instead of
    /// a divide per lookup. For the power-of-two ranges the hardware
    /// tables use (4, 8) the multiply is bit-identical to the division.
    pos_scale: f32,
    table: Vec<f32>,
}

/// Only the defining fields are persisted; `pos_scale` is derived and is
/// recomputed (and the shape validated) on deserialization, so a
/// hand-edited blob cannot desynchronize the lookup geometry.
impl Serialize for ActivationLut {
    fn to_value(&self) -> serde::value::Value {
        serde::value::Value::Map(vec![
            ("activation".to_string(), self.activation.to_value()),
            ("range".to_string(), self.range.to_value()),
            ("table".to_string(), self.table.to_value()),
        ])
    }
}

impl Deserialize for ActivationLut {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::DeError> {
        let activation: Activation = serde::de::field(v, "activation")?;
        let range: f32 = serde::de::field(v, "range")?;
        let table: Vec<f32> = serde::de::field(v, "table")?;
        Self::from_parts(activation, range, table).map_err(serde::DeError)
    }
}

impl ActivationLut {
    /// Builds a table of `entries` samples of `activation` over
    /// `[-range, range]`.
    ///
    /// # Panics
    ///
    /// Panics if `entries < 2` or `range <= 0`.
    pub fn new(activation: Activation, range: f32, entries: usize) -> Self {
        assert!(entries >= 2, "lut needs at least 2 entries");
        assert!(range > 0.0, "lut range must be positive");
        let table: Vec<f32> = (0..entries)
            .map(|i| {
                let x = -range + 2.0 * range * i as f32 / (entries - 1) as f32;
                activation.eval(x)
            })
            .collect();
        Self {
            activation,
            range,
            pos_scale: (entries - 1) as f32 / (2.0 * range),
            table,
        }
    }

    /// Rebuilds a table from stored parts (persistence paths: serde
    /// and model snapshots), preserving the stored sample values
    /// bit-exactly rather than recomputing them. Validates the same
    /// invariants `new` asserts and recomputes the derived
    /// `pos_scale`; returns a message naming the violated invariant
    /// instead of panicking.
    pub fn from_parts(activation: Activation, range: f32, table: Vec<f32>) -> Result<Self, String> {
        if !(range.is_finite() && range > 0.0) {
            return Err(format!(
                "lut range must be positive and finite, got {range}"
            ));
        }
        if table.len() < 2 {
            return Err(format!("lut needs at least 2 entries, got {}", table.len()));
        }
        Ok(Self {
            activation,
            range,
            pos_scale: (table.len() - 1) as f32 / (2.0 * range),
            table,
        })
    }

    /// A 256-entry sigmoid table over `[-8, 8]` — the tile configuration
    /// used throughout the reproduction.
    pub fn hardware_sigmoid() -> Self {
        Self::new(Activation::Sigmoid, 8.0, 256)
    }

    /// A 256-entry tanh table over `[-4, 4]`.
    pub fn hardware_tanh() -> Self {
        Self::new(Activation::Tanh, 4.0, 256)
    }

    /// The approximated activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Number of table entries.
    pub fn entries(&self) -> usize {
        self.table.len()
    }

    /// The clamp range `r` (inputs map over `[-r, r]`).
    pub fn range(&self) -> f32 {
        self.range
    }

    /// The position scale `(entries - 1) / (2 · range)` applied after the
    /// clamp — exposed (with [`Self::table`]) so batched kernels can
    /// replay [`Self::eval`] element-for-element.
    pub fn position_scale(&self) -> f32 {
        self.pos_scale
    }

    /// The raw sample table.
    pub fn table(&self) -> &[f32] {
        &self.table
    }

    /// Evaluates the table at `x` (nearest entry, ties to even, clamped
    /// range). The tie-breaking matches the IEEE default rounding mode —
    /// i.e. what one `vroundps` performs — so vectorized replays of this
    /// lookup are bit-identical to the scalar path.
    #[inline]
    pub fn eval(&self, x: f32) -> f32 {
        let n = self.table.len();
        let clamped = x.clamp(-self.range, self.range);
        let pos = (clamped + self.range) * self.pos_scale;
        let idx = pos.round_ties_even() as usize;
        self.table[idx.min(n - 1)]
    }

    /// Worst-case absolute error against the exact function, sampled on a
    /// fine grid. Useful for tests and for documenting the precision the
    /// hardware model carries.
    pub fn max_error(&self, samples: usize) -> f32 {
        (0..samples)
            .map(|i| {
                let x = -self.range + 2.0 * self.range * i as f32 / (samples - 1) as f32;
                (self.eval(x) - self.activation.eval(x)).abs()
            })
            .fold(0.0, f32::max)
    }

    /// Evaluates the table over a whole plane in place — the batched form
    /// the serving pointwise stage uses. Dispatches to the 8-wide gather
    /// twin through [`crate::simd::use_avx2`] (CPU detection plus the
    /// `ZSKIP_FORCE_PORTABLE` veto); every twin is bit-identical to the
    /// portable body, so the dispatch never changes an output bit.
    #[inline]
    pub fn eval_slice(&self, plane: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::use_avx2() {
            // SAFETY: AVX2 support was just detected.
            unsafe { self.eval_slice_avx2(plane) };
            return;
        }
        self.eval_slice_portable(plane);
    }

    /// The portable body of [`Self::eval_slice`]: scalar [`Self::eval`]
    /// per element. Public so dispatch-pinning tests can compare the two
    /// bodies directly regardless of what the policy would pick.
    pub fn eval_slice_portable(&self, plane: &mut [f32]) {
        for v in plane.iter_mut() {
            *v = self.eval(*v);
        }
    }

    /// AVX2 twin of [`Self::eval_slice_portable`]: replays [`Self::eval`]
    /// with 8-wide gathers. `min`/`max` match the scalar `clamp` for
    /// finite inputs, and `cvtps2dq` rounds to nearest, ties to even —
    /// the scalar path's `round_ties_even` in one instruction — so the
    /// twins are bit-identical (pinned by the `dispatch_pin` tests). The
    /// sub-8 tail runs the real scalar `eval`.
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX2 (the `target_feature`
    /// contract); [`Self::eval_slice`] checks via `simd::use_avx2()`
    /// before dispatching here. No other precondition — slice accesses
    /// are bounds-guarded and gather indices are clamped.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    pub fn eval_slice_avx2(&self, plane: &mut [f32]) {
        use std::arch::x86_64::*;
        let table = &self.table;
        let vmin = _mm256_set1_ps(-self.range);
        let vmax = _mm256_set1_ps(self.range);
        let vrange = _mm256_set1_ps(self.range);
        let vscale = _mm256_set1_ps(self.pos_scale);
        let vlast = _mm256_set1_epi32(table.len() as i32 - 1);
        let vzero = _mm256_setzero_si256();
        let mut k = 0usize;
        while k + 8 <= plane.len() {
            // SAFETY: `k + 8 <= len` bounds the loads/stores; gather
            // indices are clamped into `0..table.len()` right before the
            // table read.
            unsafe {
                let v = _mm256_loadu_ps(plane.as_ptr().add(k));
                let clamped = _mm256_min_ps(_mm256_max_ps(v, vmin), vmax);
                let pos = _mm256_mul_ps(_mm256_add_ps(clamped, vrange), vscale);
                let idx = _mm256_cvtps_epi32(pos);
                let idx = _mm256_min_epi32(_mm256_max_epi32(idx, vzero), vlast);
                let vals = _mm256_i32gather_ps::<4>(table.as_ptr(), idx);
                _mm256_storeu_ps(plane.as_mut_ptr().add(k), vals);
            }
            k += 8;
        }
        for v in plane[k..].iter_mut() {
            *v = self.eval(*v);
        }
    }

    /// Out-of-place twin of [`Self::eval_slice`]: `dst[i] = eval(src[i])`.
    /// Lets the LSTM pointwise stage compute `tanh(c)` into the hidden
    /// plane without a temporary, preserving the zero-allocation step.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` differ in length.
    #[inline]
    pub fn eval_into(&self, src: &[f32], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "eval_into length mismatch");
        #[cfg(target_arch = "x86_64")]
        if crate::simd::use_avx2() {
            // SAFETY: AVX2 support was just detected.
            unsafe { self.eval_into_avx2(src, dst) };
            return;
        }
        self.eval_into_portable(src, dst);
    }

    /// Portable body of [`Self::eval_into`].
    pub fn eval_into_portable(&self, src: &[f32], dst: &mut [f32]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = self.eval(s);
        }
    }

    /// AVX2 twin of [`Self::eval_into_portable`] — the gather replay of
    /// [`Self::eval_slice_avx2`] reading `src` and writing `dst`.
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX2 (the `target_feature`
    /// contract); [`Self::eval_into`] checks via `simd::use_avx2()`
    /// before dispatching here. No other precondition — accesses are
    /// bounded by the shorter slice and gather indices are clamped.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    pub fn eval_into_avx2(&self, src: &[f32], dst: &mut [f32]) {
        use std::arch::x86_64::*;
        let n = src.len().min(dst.len());
        let table = &self.table;
        let vmin = _mm256_set1_ps(-self.range);
        let vmax = _mm256_set1_ps(self.range);
        let vrange = _mm256_set1_ps(self.range);
        let vscale = _mm256_set1_ps(self.pos_scale);
        let vlast = _mm256_set1_epi32(table.len() as i32 - 1);
        let vzero = _mm256_setzero_si256();
        let mut k = 0usize;
        while k + 8 <= n {
            // SAFETY: `k + 8 <= n ≤ both lengths` bounds the loads and
            // stores; gather indices are clamped into bounds.
            unsafe {
                let v = _mm256_loadu_ps(src.as_ptr().add(k));
                let clamped = _mm256_min_ps(_mm256_max_ps(v, vmin), vmax);
                let pos = _mm256_mul_ps(_mm256_add_ps(clamped, vrange), vscale);
                let idx = _mm256_cvtps_epi32(pos);
                let idx = _mm256_min_epi32(_mm256_max_epi32(idx, vzero), vlast);
                let vals = _mm256_i32gather_ps::<4>(table.as_ptr(), idx);
                _mm256_storeu_ps(dst.as_mut_ptr().add(k), vals);
            }
            k += 8;
        }
        for (d, &s) in dst[k..n].iter_mut().zip(&src[k..n]) {
            *d = self.eval(s);
        }
    }
}

/// An [`ActivationLut`] with its lookup constants broadcast to eight
/// lanes — what a kernel that fuses the lookup into a wider loop (the
/// i8 tail in [`crate::qlstm`]) hoists out of it.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct LutLanes8<'a> {
    table: &'a [f32],
    range: std::arch::x86_64::__m256,
    neg_range: std::arch::x86_64::__m256,
    pos_scale: std::arch::x86_64::__m256,
    last: std::arch::x86_64::__m256i,
}

#[cfg(target_arch = "x86_64")]
impl ActivationLut {
    /// Broadcasts the lookup geometry for [`LutLanes8::eval`].
    #[target_feature(enable = "avx2")]
    pub(crate) fn lanes8(&self) -> LutLanes8<'_> {
        use std::arch::x86_64::*;
        LutLanes8 {
            table: &self.table,
            range: _mm256_set1_ps(self.range),
            neg_range: _mm256_set1_ps(-self.range),
            pos_scale: _mm256_set1_ps(self.pos_scale),
            last: _mm256_set1_epi32(self.table.len() as i32 - 1),
        }
    }
}

#[cfg(target_arch = "x86_64")]
impl LutLanes8<'_> {
    /// [`ActivationLut::eval`] on eight values at once — the loop body
    /// of [`ActivationLut::eval_slice_avx2`] on one register, with the
    /// same clamp, ties-to-even `cvtps2dq` index and clamped gather.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) fn eval(&self, v: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
        use std::arch::x86_64::*;
        let clamped = _mm256_min_ps(_mm256_max_ps(v, self.neg_range), self.range);
        let pos = _mm256_mul_ps(_mm256_add_ps(clamped, self.range), self.pos_scale);
        let idx = _mm256_cvtps_epi32(pos);
        let idx = _mm256_min_epi32(_mm256_max_epi32(idx, _mm256_setzero_si256()), self.last);
        // SAFETY: `idx` was just clamped into `0..table.len()`.
        unsafe { _mm256_i32gather_ps::<4>(self.table.as_ptr(), idx) }
    }
}

/// The sigmoid/tanh table pair a recurrent cell carries — **the** shared
/// LUT core: one type owns the table geometry (position scale, ties-even
/// rounding, clamped tails via [`ActivationLut::eval`]) and the per-gate
/// dispatch, for both the i8 accelerator datapath
/// (`zskip_core::QuantizedLstm`) and the f32 training/serving cells.
///
/// # Example
///
/// ```
/// use zskip_tensor::lut::GateLuts;
///
/// let luts = GateLuts::shared_f32();
/// // Gates 0..=2 are sigmoid, gate 3 tanh (LSTM order [f, i, o, g]).
/// assert_eq!(luts.eval_gate(0, 0.0), luts.sigmoid().eval(0.0));
/// assert_eq!(luts.eval_gate(3, 0.0), luts.tanh().eval(0.0));
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GateLuts {
    sigmoid: ActivationLut,
    tanh: ActivationLut,
}

impl GateLuts {
    /// Pairs a sigmoid and a tanh table.
    ///
    /// # Panics
    ///
    /// Panics if a table approximates the wrong activation.
    pub fn new(sigmoid: ActivationLut, tanh: ActivationLut) -> Self {
        assert_eq!(sigmoid.activation(), Activation::Sigmoid, "sigmoid table");
        assert_eq!(tanh.activation(), Activation::Tanh, "tanh table");
        Self { sigmoid, tanh }
    }

    /// The accelerator tiles' 256-entry ROM pair (sigmoid over `[-8, 8]`,
    /// tanh over `[-4, 4]`) — the i8 family's configuration.
    pub fn hardware() -> Self {
        Self {
            sigmoid: ActivationLut::hardware_sigmoid(),
            tanh: ActivationLut::hardware_tanh(),
        }
    }

    /// The shared f32 training/serving pair: 4096-entry tables over the
    /// same ranges (16 KiB each — both L1-resident). Max absolute error
    /// ~5e-4 (sigmoid) / ~1e-3 (tanh), small enough that training
    /// converges indistinguishably from the smooth activations (pinned by
    /// the accuracy-regression test in `zskip-nn`), while serving gets
    /// the 8-wide gather pointwise stage.
    pub fn shared_f32() -> Self {
        Self {
            sigmoid: ActivationLut::new(Activation::Sigmoid, 8.0, 4096),
            tanh: ActivationLut::new(Activation::Tanh, 4.0, 4096),
        }
    }

    /// The sigmoid table.
    pub fn sigmoid(&self) -> &ActivationLut {
        &self.sigmoid
    }

    /// The tanh table.
    pub fn tanh(&self) -> &ActivationLut {
        &self.tanh
    }

    /// Applies the non-linearity for LSTM gate `gate` (`0..=2` sigmoid,
    /// `3` tanh — gate order `[f, i, o, g]`).
    ///
    /// # Panics
    ///
    /// Panics if `gate > 3`.
    #[inline]
    pub fn eval_gate(&self, gate: usize, z: f32) -> f32 {
        match gate {
            0..=2 => self.sigmoid.eval(z),
            3 => self.tanh.eval(z),
            _ => panic!("gate index {gate} out of range"),
        }
    }
}

/// Which activation bodies a training cell (and therefore its frozen
/// serving twin) evaluates gates with. This is a **contract**, not a
/// serving-side optimization: the choice is made at training time, is
/// serialized with the model, and the frozen cells replay exactly the
/// same bodies — smooth `exp`-based scalars, or the shared LUT pair that
/// the serving pointwise stage can vectorize with gathers.
#[derive(Clone, Debug, Default)]
pub enum GateActivations {
    /// Exact `exp`-based [`sigmoid`]/[`tanh`] — the historical default.
    /// Bit-pinned scalar on both sides (no SIMD approximation matches
    /// `exp` bit-for-bit), which is why LUT mode exists.
    #[default]
    Smooth,
    /// The shared lookup tables: identical bits on the training and
    /// serving side, batched gather evaluation when serving.
    Lut(GateLuts),
}

impl GateActivations {
    /// The shared f32 table pair, [`GateLuts::shared_f32`].
    pub fn lut_f32() -> Self {
        Self::Lut(GateLuts::shared_f32())
    }

    /// `true` in LUT mode.
    pub fn is_lut(&self) -> bool {
        matches!(self, Self::Lut(_))
    }

    /// The table pair, when in LUT mode.
    pub fn luts(&self) -> Option<&GateLuts> {
        match self {
            Self::Smooth => None,
            Self::Lut(luts) => Some(luts),
        }
    }

    /// Scalar sigmoid under this contract.
    #[inline]
    pub fn sigmoid(&self, x: f32) -> f32 {
        match self {
            Self::Smooth => sigmoid(x),
            Self::Lut(luts) => luts.sigmoid.eval(x),
        }
    }

    /// Scalar tanh under this contract.
    #[inline]
    pub fn tanh(&self, x: f32) -> f32 {
        match self {
            Self::Smooth => tanh(x),
            Self::Lut(luts) => luts.tanh.eval(x),
        }
    }
}

/// Persisted as a tagged map: `{"mode": "smooth"}` or
/// `{"mode": "lut", "luts": {...}}` — the vendored serde derive only
/// handles field structs, and an explicit tag keeps checkpoints
/// self-describing.
impl Serialize for GateActivations {
    fn to_value(&self) -> serde::value::Value {
        match self {
            Self::Smooth => serde::value::Value::Map(vec![(
                "mode".to_string(),
                serde::value::Value::Str("smooth".to_string()),
            )]),
            Self::Lut(luts) => serde::value::Value::Map(vec![
                (
                    "mode".to_string(),
                    serde::value::Value::Str("lut".to_string()),
                ),
                ("luts".to_string(), luts.to_value()),
            ]),
        }
    }
}

impl Deserialize for GateActivations {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::DeError> {
        let mode: String = serde::de::field(v, "mode")?;
        match mode.as_str() {
            "smooth" => Ok(Self::Smooth),
            "lut" => Ok(Self::Lut(serde::de::field(v, "luts")?)),
            other => Err(serde::DeError(format!(
                "unknown gate-activation mode {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_reference_values() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(10.0) > 0.9999);
        assert!(sigmoid(-10.0) < 0.0001);
        // Symmetry: σ(-x) = 1 - σ(x).
        for x in [0.3f32, 1.7, 4.2] {
            assert!((sigmoid(-x) - (1.0 - sigmoid(x))).abs() < 1e-6);
        }
    }

    #[test]
    fn sigmoid_is_numerically_stable_for_large_negative() {
        assert!(sigmoid(-100.0) >= 0.0);
        assert!(sigmoid(-100.0).is_finite());
    }

    #[test]
    fn tanh_reference_is_odd() {
        for x in [0.1f32, 0.9, 2.5] {
            assert!((tanh(-x) + tanh(x)).abs() < 1e-6);
        }
    }

    #[test]
    fn lut_matches_reference_within_resolution() {
        let lut = ActivationLut::hardware_sigmoid();
        assert!(lut.max_error(10_000) < 0.02);
        let lut = ActivationLut::hardware_tanh();
        assert!(lut.max_error(10_000) < 0.02);
    }

    #[test]
    fn lut_clamps_tails() {
        let lut = ActivationLut::hardware_tanh();
        assert!((lut.eval(100.0) - 1.0).abs() < 0.01);
        assert!((lut.eval(-100.0) + 1.0).abs() < 0.01);
    }

    #[test]
    fn finer_tables_are_more_accurate() {
        let coarse = ActivationLut::new(Activation::Sigmoid, 8.0, 64);
        let fine = ActivationLut::new(Activation::Sigmoid, 8.0, 4096);
        assert!(fine.max_error(5000) < coarse.max_error(5000));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_tiny_table() {
        let _ = ActivationLut::new(Activation::Tanh, 4.0, 1);
    }

    /// A deterministic plane of awkward inputs: in-range, out-of-range,
    /// near table-boundary values, exact zeros.
    fn test_plane(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = crate::SeedableStream::new(seed);
        (0..len)
            .map(|i| match i % 7 {
                0 => 0.0,
                1 => rng.uniform(-20.0, 20.0),
                2 => rng.uniform(-0.01, 0.01),
                _ => rng.uniform(-8.5, 8.5),
            })
            .collect()
    }

    #[test]
    fn eval_slice_portable_matches_scalar_eval_bitwise() {
        for lut in [
            ActivationLut::hardware_sigmoid(),
            ActivationLut::new(Activation::Tanh, 4.0, 4096),
        ] {
            let src = test_plane(101, 5);
            let mut plane = src.clone();
            lut.eval_slice_portable(&mut plane);
            for (&x, &y) in src.iter().zip(&plane) {
                assert_eq!(lut.eval(x).to_bits(), y.to_bits());
            }
            let mut dst = vec![0.0f32; src.len()];
            lut.eval_into_portable(&src, &mut dst);
            assert_eq!(
                plane.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                dst.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn eval_slice_twins_agree_bitwise() {
        // The dispatch-pin contract for the LUT kernel family: the AVX2
        // gather replay must be bit-identical to the portable body, on
        // odd lengths so the scalar tail is exercised too.
        if !crate::simd::use_avx2() {
            return;
        }
        for lut in [
            ActivationLut::hardware_sigmoid(),
            ActivationLut::hardware_tanh(),
            ActivationLut::new(Activation::Sigmoid, 8.0, 4096),
            ActivationLut::new(Activation::Tanh, 4.0, 4096),
        ] {
            for len in [0usize, 3, 8, 37, 129, 1536] {
                let src = test_plane(len, len as u64 + 11);
                let mut portable = src.clone();
                lut.eval_slice_portable(&mut portable);
                let mut vectored = src.clone();
                // SAFETY: AVX2 detected above.
                unsafe { lut.eval_slice_avx2(&mut vectored) };
                assert_eq!(
                    portable.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    vectored.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "eval_slice twins diverged (len {len})"
                );
                let mut dst_p = vec![0.0f32; len];
                lut.eval_into_portable(&src, &mut dst_p);
                let mut dst_v = vec![0.0f32; len];
                // SAFETY: AVX2 detected above.
                unsafe { lut.eval_into_avx2(&src, &mut dst_v) };
                assert_eq!(
                    dst_p.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    dst_v.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "eval_into twins diverged (len {len})"
                );
            }
        }
    }

    #[test]
    fn dispatched_eval_slice_matches_portable() {
        // Whatever body the policy picks, outputs are the portable bits.
        let lut = ActivationLut::new(Activation::Sigmoid, 8.0, 4096);
        let src = test_plane(63, 3);
        let mut dispatched = src.clone();
        lut.eval_slice(&mut dispatched);
        let mut portable = src.clone();
        lut.eval_slice_portable(&mut portable);
        assert_eq!(
            dispatched.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            portable.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn shared_f32_tables_are_tight() {
        let luts = GateLuts::shared_f32();
        assert!(luts.sigmoid().max_error(50_000) < 1e-3);
        assert!(luts.tanh().max_error(50_000) < 2e-3);
        assert_eq!(luts.sigmoid().entries(), 4096);
        assert_eq!(luts.tanh().entries(), 4096);
    }

    #[test]
    fn gate_luts_dispatch_matches_lstm_gate_order() {
        let luts = GateLuts::hardware();
        for z in [-3.0f32, 0.0, 1.7] {
            for gate in 0..3 {
                assert_eq!(
                    luts.eval_gate(gate, z).to_bits(),
                    luts.sigmoid().eval(z).to_bits()
                );
            }
            assert_eq!(
                luts.eval_gate(3, z).to_bits(),
                luts.tanh().eval(z).to_bits()
            );
        }
        assert!(std::panic::catch_unwind(|| GateLuts::hardware().eval_gate(4, 0.0)).is_err());
    }

    #[test]
    #[should_panic(expected = "sigmoid table")]
    fn gate_luts_reject_swapped_tables() {
        let _ = GateLuts::new(
            ActivationLut::hardware_tanh(),
            ActivationLut::hardware_sigmoid(),
        );
    }

    #[test]
    fn gate_activations_serde_round_trip() {
        let smooth = GateActivations::Smooth;
        let back = GateActivations::from_value(&smooth.to_value()).expect("smooth round trip");
        assert!(!back.is_lut());

        let lut = GateActivations::lut_f32();
        let back = GateActivations::from_value(&lut.to_value()).expect("lut round trip");
        let (a, b) = (lut.luts().unwrap(), back.luts().unwrap());
        assert_eq!(a.sigmoid().entries(), b.sigmoid().entries());
        for i in 0..1000 {
            let x = -10.0 + i as f32 * 0.02;
            assert_eq!(a.sigmoid().eval(x).to_bits(), b.sigmoid().eval(x).to_bits());
            assert_eq!(a.tanh().eval(x).to_bits(), b.tanh().eval(x).to_bits());
        }
        assert!(GateActivations::from_value(&serde::value::Value::Map(vec![(
            "mode".to_string(),
            serde::value::Value::Str("cubic".to_string()),
        )]))
        .is_err());
    }

    #[test]
    fn serde_round_trip_preserves_eval_bitwise() {
        let lut = ActivationLut::hardware_sigmoid();
        let back = ActivationLut::from_value(&lut.to_value()).expect("round trip");
        for i in 0..1000 {
            let x = -10.0 + i as f32 * 0.02;
            assert_eq!(lut.eval(x).to_bits(), back.eval(x).to_bits());
        }
        // Degenerate geometry is rejected, not reconstructed.
        let mut fields = match lut.to_value() {
            serde::value::Value::Map(m) => m,
            _ => unreachable!(),
        };
        for (k, v) in fields.iter_mut() {
            if k == "range" {
                *v = serde::value::Value::Float(0.0);
            }
        }
        assert!(ActivationLut::from_value(&serde::value::Value::Map(fields)).is_err());
    }
}
