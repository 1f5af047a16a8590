//! The i8 LSTM's post-GEMM datapath as one batched kernel.
//!
//! Once the `i8 × i8 → i32` gate accumulators exist, every unit of every
//! lane runs the same chain: **rescale → LUT gates → `c = f·c + i·g` →
//! requantise → `tanh` → `o·tanh(c)` → prune → requantise → pack to
//! `i8`**. [`QLstmTail::step`] runs that chain over a whole `B × dh`
//! plane, eight units per iteration in the AVX2 twin, and is pinned
//! bit-for-bit to the scalar reference it replays
//! (`zskip_core::QuantizedLstm::{preactivation, activation, pointwise}`).
//!
//! Two facts keep it exact and cheap:
//!
//! * `tanh(dequantize(c_code))` depends only on the code, so the second
//!   `tanh` is a 256-entry table ([`tanh_of_code`]) instead of a
//!   dequantise + index-rounding + lookup per unit;
//! * state quantisation rounds **half away from zero**
//!   ([`Quantizer::quantize`]), which has an exact branch-free form
//!   (see [`Quantizer::quantize_into`]) — unlike the gate tables, whose
//!   index rounds **ties to even** ([`ActivationLut::eval`]).
//!
//! The arithmetic is `mul`, `mul`, `add`, `add` per pre-activation and
//! `mul`, `mul`, `add` for the cell update — never fused — so both twins
//! round exactly where the scalar formulas do.

use crate::lut::ActivationLut;
#[cfg(target_arch = "x86_64")]
use crate::quant::QuantLanes8;
use crate::quant::Quantizer;

/// `tanh` of every cell-state code: entry `code + 128` holds
/// `tanh.eval(c_quant.dequantize(code))`, covering `-128` too so any
/// `i8` indexes in bounds. Derived data — rebuild it wherever the
/// table or the quantizer is (re)constructed; never persist it.
pub fn tanh_of_code(tanh: &ActivationLut, c_quant: Quantizer) -> [f32; 256] {
    std::array::from_fn(|i| tanh.eval(c_quant.dequantize((i as i32 - 128) as i8)))
}

/// Borrowed parameters of the quantized LSTM's post-GEMM stage, gate
/// order `[f | i | o | g]` blocked by `dh` (so `bias.len() == 4·dh`).
///
/// Planes are row-major, one lane per row: `zx` and `acc_h` are
/// `B × 4dh`, `c_prev`, `h_out` and `c_out` are `B × dh`. `zx` carries
/// the x-side `i32` accumulators as exactly-integral `f32` values (the
/// serving runtime's encoding; the reference's `as i32 as f32` round
/// trip is then the identity).
#[derive(Clone, Copy, Debug)]
pub struct QLstmTail<'a> {
    /// Real value of one x-side accumulator LSB.
    pub x_scale: f32,
    /// Real value of one h-side accumulator LSB.
    pub h_scale: f32,
    /// Full-precision gate bias (`4·dh`).
    pub bias: &'a [f32],
    /// Table for gates `f`, `i`, `o`.
    pub sigmoid: &'a ActivationLut,
    /// Table for gate `g`.
    pub tanh: &'a ActivationLut,
    /// [`tanh_of_code`] of `tanh` under `c_quant`.
    pub tanh_of_code: &'a [f32; 256],
    /// Cell-state quantizer.
    pub c_quant: Quantizer,
    /// Hidden-state quantizer.
    pub h_quant: Quantizer,
    /// Pruning threshold `T` (Eq. 5), applied to the real `h` before it
    /// is requantised.
    pub threshold: f32,
}

impl QLstmTail<'_> {
    /// One batched step over every lane. Dispatches to the AVX2 twin
    /// through [`crate::simd::use_avx2`]; both bodies produce the same
    /// codes, so the dispatch never changes an output bit.
    ///
    /// # Panics
    ///
    /// Panics if the plane lengths disagree with `bias.len() / 4`.
    pub fn step(
        &self,
        zx: &[f32],
        acc_h: &[i32],
        c_prev: &[i8],
        h_out: &mut [i8],
        c_out: &mut [i8],
    ) {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::use_avx2() {
            // SAFETY: AVX2 support was just detected.
            unsafe { self.step_avx2(zx, acc_h, c_prev, h_out, c_out) };
            return;
        }
        self.step_portable(zx, acc_h, c_prev, h_out, c_out);
    }

    /// Checks the plane shapes against each other; returns `dh`.
    fn checked_dh(&self, zx: &[f32], acc_h: &[i32], c_prev: &[i8], h: &[i8], c: &[i8]) -> usize {
        let dh = self.bias.len() / 4;
        assert_eq!(self.bias.len(), 4 * dh, "bias is not 4·dh long");
        let units = c_prev.len();
        assert!(
            units.is_multiple_of(dh),
            "{units} cell codes are not whole lanes of {dh}"
        );
        assert_eq!(zx.len(), 4 * units, "zx plane length mismatch");
        assert_eq!(acc_h.len(), 4 * units, "acc_h plane length mismatch");
        assert_eq!(h.len(), units, "h_out plane length mismatch");
        assert_eq!(c.len(), units, "c_out plane length mismatch");
        dh
    }

    /// One unit of one lane, scalar: the reference chain with the two
    /// table-driven shortcuts. `zx`/`acc_h` are the lane's `4·dh` rows.
    #[inline]
    fn unit(&self, dh: usize, zx: &[f32], acc_h: &[i32], j: usize, c_prev: i8) -> (i8, i8) {
        let z = |gate: usize| {
            let k = gate * dh + j;
            zx[k] * self.x_scale + acc_h[k] as f32 * self.h_scale + self.bias[k]
        };
        let f = self.sigmoid.eval(z(0));
        let i = self.sigmoid.eval(z(1));
        let o = self.sigmoid.eval(z(2));
        let g = self.tanh.eval(z(3));
        let c_val = f * self.c_quant.dequantize(c_prev) + i * g;
        let c_code = self.c_quant.quantize_trunc(c_val);
        let mut h_val = o * self.tanh_of_code[(c_code as i32 + 128) as usize];
        if h_val.abs() < self.threshold {
            h_val = 0.0;
        }
        (self.h_quant.quantize_trunc(h_val), c_code)
    }

    /// The portable body of [`Self::step`]. Public so dispatch-pinning
    /// tests and benches can run it whatever the policy would pick.
    pub fn step_portable(
        &self,
        zx: &[f32],
        acc_h: &[i32],
        c_prev: &[i8],
        h_out: &mut [i8],
        c_out: &mut [i8],
    ) {
        let dh = self.checked_dh(zx, acc_h, c_prev, h_out, c_out);
        for (u, &c_code) in c_prev.iter().enumerate() {
            let (lane, j) = (u / dh, u % dh);
            let gates = lane * 4 * dh..(lane + 1) * 4 * dh;
            (h_out[u], c_out[u]) = self.unit(dh, &zx[gates.clone()], &acc_h[gates], j, c_code);
        }
    }

    /// AVX2 twin of [`Self::step_portable`]: eight units per iteration,
    /// five gathers (four gate lookups, one [`tanh_of_code`]), `packs`
    /// down to `i8`. Each lane's sub-8 tail runs the scalar unit.
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX2 (the `target_feature`
    /// contract); [`Self::step`] checks via `simd::use_avx2()` before
    /// dispatching here. No other precondition — plane lengths are
    /// asserted, loads and stores are bounds-guarded and gather indices
    /// are clamped or masked into their tables.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    pub fn step_avx2(
        &self,
        zx: &[f32],
        acc_h: &[i32],
        c_prev: &[i8],
        h_out: &mut [i8],
        c_out: &mut [i8],
    ) {
        use std::arch::x86_64::*;
        let dh = self.checked_dh(zx, acc_h, c_prev, h_out, c_out);
        let luts = [self.sigmoid, self.sigmoid, self.sigmoid, self.tanh].map(|l| l.lanes8());
        let (c_lanes, h_lanes) = (self.c_quant.lanes8(), self.h_quant.lanes8());
        let xs = _mm256_set1_ps(self.x_scale);
        let hs = _mm256_set1_ps(self.h_scale);
        let c_step = _mm256_set1_ps(self.c_quant.step());
        let thr = _mm256_set1_ps(self.threshold);
        let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
        let (v128, v255) = (_mm256_set1_epi32(128), _mm256_set1_epi32(255));
        // `checked_dh` leaves `dh == 0` only for empty planes.
        for lane in 0..c_prev.len() / dh.max(1) {
            let zx = &zx[lane * 4 * dh..(lane + 1) * 4 * dh];
            let acc_h = &acc_h[lane * 4 * dh..(lane + 1) * 4 * dh];
            let c_prev = &c_prev[lane * dh..(lane + 1) * dh];
            let h_out = &mut h_out[lane * dh..(lane + 1) * dh];
            let c_out = &mut c_out[lane * dh..(lane + 1) * dh];
            let mut j = 0usize;
            while j + 8 <= dh {
                let mut gates = [_mm256_setzero_ps(); 4];
                for (g, gate) in gates.iter_mut().enumerate() {
                    let k = g * dh + j;
                    // SAFETY: `j + 8 <= dh` puts `k + 8 <= (g + 1)·dh ≤
                    // 4·dh`, the length of `zx`, `acc_h` (sliced above)
                    // and `bias` (checked by `checked_dh`).
                    let (x, a, b) = unsafe {
                        (
                            _mm256_loadu_ps(zx.as_ptr().add(k)),
                            _mm256_loadu_si256(acc_h.as_ptr().add(k) as *const __m256i),
                            _mm256_loadu_ps(self.bias.as_ptr().add(k)),
                        )
                    };
                    let z = _mm256_add_ps(
                        _mm256_add_ps(
                            _mm256_mul_ps(x, xs),
                            _mm256_mul_ps(_mm256_cvtepi32_ps(a), hs),
                        ),
                        b,
                    );
                    *gate = luts[g].eval(z);
                }
                let [f, i, o, g] = gates;
                // SAFETY: `j + 8 <= dh == c_prev.len()` bounds the 8-byte
                // load.
                let codes = unsafe { _mm_loadl_epi64(c_prev.as_ptr().add(j) as *const __m128i) };
                let c_real = _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(codes)), c_step);
                let c_val = _mm256_add_ps(_mm256_mul_ps(f, c_real), _mm256_mul_ps(i, g));
                let c_code = c_lanes.quantize(c_val);
                let idx = _mm256_and_si256(_mm256_add_epi32(c_code, v128), v255);
                // SAFETY: `idx` is masked into `0..=255` and the table
                // holds 256 entries.
                let tc = unsafe { _mm256_i32gather_ps::<4>(self.tanh_of_code.as_ptr(), idx) };
                let h_val = _mm256_mul_ps(o, tc);
                let pruned = _mm256_cmp_ps::<_CMP_LT_OQ>(_mm256_and_ps(h_val, abs_mask), thr);
                let h_code = h_lanes.quantize(_mm256_andnot_ps(pruned, h_val));
                let both = QuantLanes8::pack(c_code, h_code);
                // SAFETY: `j + 8 <= dh` bounds both 8-byte stores within
                // the lane's `c_out` / `h_out` rows (length `dh`).
                unsafe {
                    _mm_storel_epi64(c_out.as_mut_ptr().add(j) as *mut __m128i, both);
                    _mm_storel_epi64(
                        h_out.as_mut_ptr().add(j) as *mut __m128i,
                        _mm_unpackhi_epi64(both, both),
                    );
                }
                j += 8;
            }
            for j in j..dh {
                (h_out[j], c_out[j]) = self.unit(dh, zx, acc_h, j, c_prev[j]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GateLuts, SeedableStream};

    #[test]
    fn tanh_of_code_replays_dequantize_then_eval() {
        let luts = GateLuts::hardware();
        let c_quant = Quantizer::from_max_abs(4.0);
        let table = tanh_of_code(luts.tanh(), c_quant);
        for code in i8::MIN..=i8::MAX {
            let want = luts.tanh().eval(c_quant.dequantize(code));
            assert_eq!(
                table[(code as i32 + 128) as usize].to_bits(),
                want.to_bits()
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn step_twins_agree_bitwise() {
        if !crate::simd::use_avx2() {
            return;
        }
        let luts = GateLuts::hardware();
        let c_quant = Quantizer::from_max_abs(4.0);
        let table = tanh_of_code(luts.tanh(), c_quant);
        let mut rng = SeedableStream::new(4);
        // Odd dh so the 8-wide loop exercises its scalar tails; dh < 8 so
        // a lane can be all tail.
        for (lanes, dh) in [(1usize, 37usize), (3, 8), (2, 5), (0, 4)] {
            let bias: Vec<f32> = (0..4 * dh).map(|_| rng.uniform(-3.0, 3.0)).collect();
            let tail = QLstmTail {
                x_scale: 7.1e-4,
                h_scale: 3.3e-5,
                bias: &bias,
                sigmoid: luts.sigmoid(),
                tanh: luts.tanh(),
                tanh_of_code: &table,
                c_quant,
                h_quant: Quantizer::from_max_abs(1.0),
                threshold: 0.2,
            };
            let zx: Vec<f32> = (0..lanes * 4 * dh)
                .map(|_| rng.uniform(-16129.0, 16129.0).round())
                .collect();
            let acc: Vec<i32> = (0..lanes * 4 * dh)
                .map(|_| rng.uniform(-2e5, 2e5) as i32)
                .collect();
            let c: Vec<i8> = (0..lanes * dh).map(|u| (u * 37) as i8).collect();
            let (mut hp, mut cp) = (vec![i8::MIN; c.len()], vec![i8::MIN; c.len()]);
            tail.step_portable(&zx, &acc, &c, &mut hp, &mut cp);
            let (mut ha, mut ca) = (vec![i8::MIN; c.len()], vec![i8::MIN; c.len()]);
            // SAFETY: AVX2 detected above.
            unsafe { tail.step_avx2(&zx, &acc, &c, &mut ha, &mut ca) };
            assert_eq!(hp, ha, "hidden codes diverged between twins (dh {dh})");
            assert_eq!(cp, ca, "cell codes diverged between twins (dh {dh})");
        }
    }
}
