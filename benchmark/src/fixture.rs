//! Model fixtures with *controlled, column-joint* state sparsity.
//!
//! `FrozenCharLm::random` prunes to an accidental ~99%: its gates sit
//! near 0.5 and its cell near 0, so every `|h|` falls under any useful
//! threshold. Trained models instead have a stable set of units that are
//! shut on every lane (paper Fig. 5d). The fixture reproduces that
//! through the public API only: a LUT-activation [`CharLm`] whose
//! `lstm.b` is overwritten so that a seeded fraction `s` of hidden units
//! has its output gate biased shut (`h ≈ 3e-4`, far below the threshold
//! on every lane, every step) while the rest are driven wide open
//! (`|h| ≳ 0.7`). The weights stay Xavier-random, so logits still depend
//! on the whole token history and the digest check is meaningful.

use zskip_nn::models::CharLm;
use zskip_nn::{ParamVisitor, Parameterized};
use zskip_runtime::{FrozenCharLm, FrozenQuantizedCharLm, StateLanes};
use zskip_tensor::{ActivationLut, GateActivations, Matrix, SeedableStream};
use zskip_wire::WireModel;

/// Pruning threshold every workload serves at.
pub const THRESHOLD: f32 = 0.1;

/// Gate pre-activation biases (gate order `[f | i | o | g]`). Open
/// units: `i ≈ 0.95`, `o ≈ 0.98`, `g ≈ ±0.995`, `f = 0.5`, so `c → ±1.9`
/// and `|h| ≈ 0.9`; the recurrent noise (σ ≈ 0.6 at dh 512, all units
/// open) cannot pull them under [`THRESHOLD`]. Shut units: `o ≈ 3e-4`.
const BIAS_INPUT: f32 = 3.0;
const BIAS_OUTPUT_OPEN: f32 = 4.0;
const BIAS_OUTPUT_SHUT: f32 = -8.0;
const BIAS_CANDIDATE: f32 = 3.0;

/// Number of units gated shut for a target sparsity `s` at width `dh`.
pub fn shut_units(dh: usize, s: f64) -> usize {
    (s * dh as f64).round() as usize
}

/// Overwrites `lstm.b` in place; every other tensor is left untouched.
struct GateBias {
    shut: Vec<bool>,
    negative: Vec<bool>,
}

impl ParamVisitor for GateBias {
    fn visit(&mut self, name: &str, param: &mut [f32], _grad: &mut [f32]) {
        if name != "lstm.b" {
            return;
        }
        let dh = self.shut.len();
        assert_eq!(param.len(), 4 * dh, "lstm.b is not 4·dh wide");
        for j in 0..dh {
            param[j] = 0.0;
            param[dh + j] = BIAS_INPUT;
            param[2 * dh + j] = if self.shut[j] {
                BIAS_OUTPUT_SHUT
            } else {
                BIAS_OUTPUT_OPEN
            };
            param[3 * dh + j] = if self.negative[j] {
                -BIAS_CANDIDATE
            } else {
                BIAS_CANDIDATE
            };
        }
    }
}

/// Builds the training-side model: Xavier weights from `seed`, LUT gate
/// activations, and exactly [`shut_units`]`(dh, s)` seeded units shut.
pub fn gated_char_lm(vocab: usize, dh: usize, s: f64, seed: u64) -> CharLm {
    let mut rng = SeedableStream::new(seed);
    let mut model = CharLm::with_activations(vocab, dh, GateActivations::lut_f32(), &mut rng);
    // Partial Fisher–Yates: the first `n_shut` entries of a seeded
    // permutation are the shut units.
    let mut order: Vec<usize> = (0..dh).collect();
    let n_shut = shut_units(dh, s);
    let mut shut = vec![false; dh];
    for k in 0..n_shut {
        let pick = k + rng.index(dh - k);
        order.swap(k, pick);
        shut[order[k]] = true;
    }
    let negative = (0..dh).map(|_| rng.coin(0.5)).collect();
    model.visit_params(&mut GateBias { shut, negative });
    model
}

/// What the benchmark needs from a served family beyond [`WireModel`]:
/// how to freeze the fixture and how to reach the family's own `Wh`
/// kernel and activation table for the tensor-layer probes.
pub trait Family: WireModel<Input = usize> {
    /// Bytes per stored `Wh` element (for the computed bytes-moved
    /// figure).
    const WH_ELEM_BYTES: usize;

    fn freeze(model: &mut CharLm) -> Self;

    /// A closure running this family's recurrent `Wh` product over `h`:
    /// the sparse-rows kernel when `active` is given, the dense kernel
    /// otherwise. The closure owns its output buffer, so steady-state
    /// calls allocate nothing.
    fn wh_product<'a>(
        &'a self,
        h: &'a StateLanes<Self::State>,
        active: Option<&'a [usize]>,
    ) -> Box<dyn FnMut() + 'a>;

    /// The sigmoid table the family's pointwise stage evaluates.
    fn gate_lut(&self) -> &ActivationLut;
}

impl Family for FrozenCharLm {
    const WH_ELEM_BYTES: usize = 4;

    fn freeze(model: &mut CharLm) -> Self {
        FrozenCharLm::freeze(model)
    }

    fn wh_product<'a>(
        &'a self,
        h: &'a StateLanes<f32>,
        active: Option<&'a [usize]>,
    ) -> Box<dyn FnMut() + 'a> {
        let wh = self.lstm().wh();
        let mut out = Matrix::zeros(0, 0);
        Box::new(move || {
            match active {
                Some(rows) => {
                    Matrix::matmul_sparse_rows_from_into(h.as_slice(), h.rows(), wh, rows, &mut out)
                }
                None => Matrix::matmul_from_rows_into(h.as_slice(), h.rows(), wh, &mut out),
            }
            std::hint::black_box(out.as_slice());
        })
    }

    fn gate_lut(&self) -> &ActivationLut {
        self.lstm()
            .activations()
            .luts()
            .expect("the fixture is built with LUT activations")
            .sigmoid()
    }
}

impl Family for FrozenQuantizedCharLm {
    const WH_ELEM_BYTES: usize = 1;

    fn freeze(model: &mut CharLm) -> Self {
        FrozenQuantizedCharLm::freeze(model, THRESHOLD)
    }

    fn wh_product<'a>(
        &'a self,
        h: &'a StateLanes<i8>,
        active: Option<&'a [usize]>,
    ) -> Box<dyn FnMut() + 'a> {
        let wh = self.quantized().wh();
        let mut out = Vec::new();
        Box::new(move || {
            match active {
                Some(rows) => {
                    wh.gemm_t_i32_sparse_rows_into(h.as_slice(), h.rows(), rows, &mut out)
                }
                None => wh.gemm_t_i32_into(h.as_slice(), h.rows(), &mut out),
            }
            std::hint::black_box(out.as_slice());
        })
    }

    fn gate_lut(&self) -> &ActivationLut {
        self.quantized().sigmoid_lut()
    }
}

/// Freezes the gated fixture for family `M`.
pub fn frozen<M: Family>(vocab: usize, dh: usize, s: f64, seed: u64) -> M {
    M::freeze(&mut gated_char_lm(vocab, dh, s, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zskip_runtime::{Engine, EngineConfig};

    /// `(skip fraction, dense steps, steps)` of `lanes` concurrent
    /// streams over 40 steps, after one unmeasured step has moved every
    /// session off the zero state (as the runs' warm-up does).
    fn realised<M: Family>(dh: usize, s: f64, lanes: usize) -> (f64, u64, u64) {
        let model: M = frozen(64, dh, s, 7);
        let mut engine = Engine::new(model, EngineConfig::for_threshold(THRESHOLD));
        let ids: Vec<_> = (0..lanes).map(|_| engine.open_session()).collect();
        let mut warm = *engine.stats();
        for step in 0..41usize {
            for (k, id) in ids.iter().enumerate() {
                engine.submit(*id, (step * 7 + k) % 64).unwrap();
            }
            engine.step();
            for id in &ids {
                let r = engine.poll(*id).unwrap().unwrap();
                engine.recycle(r);
            }
            if step == 0 {
                warm = *engine.stats();
            }
        }
        let st = engine.stats();
        let fetched = (st.fetched_rows - warm.fetched_rows) as f64;
        let total = (st.total_rows - warm.total_rows) as f64;
        (
            1.0 - fetched / total,
            st.dense_steps - warm.dense_steps,
            st.steps - warm.steps,
        )
    }

    fn check<M: Family>() {
        for lanes in [1usize, 16] {
            let (dense, dense_steps, steps) = realised::<M>(128, 0.0, lanes);
            assert!(dense.abs() <= 0.02, "s=0 B={lanes}: skip {dense}");
            assert_eq!((dense_steps, steps), (40, 40), "s=0 B={lanes}");
            let (sparse, dense_steps, _) = realised::<M>(128, 0.9, lanes);
            assert!((sparse - 0.9).abs() <= 0.02, "s=0.9 B={lanes}: {sparse}");
            assert_eq!(dense_steps, 0, "s=0.9 B={lanes}");
        }
    }

    #[test]
    fn f32_fixture_realises_the_target_sparsity() {
        check::<FrozenCharLm>();
    }

    #[test]
    fn i8_fixture_realises_the_target_sparsity() {
        check::<FrozenQuantizedCharLm>();
    }

    #[test]
    fn exactly_the_requested_units_are_shut() {
        assert_eq!(shut_units(512, 0.9), 461);
        assert_eq!(shut_units(128, 0.9), 115);
        assert_eq!(shut_units(512, 0.0), 0);
        let mut model = gated_char_lm(64, 128, 0.9, 3);
        struct Count(usize);
        impl ParamVisitor for Count {
            fn visit(&mut self, name: &str, p: &mut [f32], _g: &mut [f32]) {
                if name == "lstm.b" {
                    let dh = p.len() / 4;
                    self.0 = p[2 * dh..3 * dh].iter().filter(|b| **b < 0.0).count();
                }
            }
        }
        let mut count = Count(0);
        model.visit_params(&mut count);
        assert_eq!(count.0, 115);
    }
}
