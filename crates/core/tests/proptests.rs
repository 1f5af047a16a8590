//! Property-based tests for pruning, sparsity, the offset encoder and
//! the quantized cell's batched step.

use proptest::prelude::*;
use zskip_core::sparsity::{joint_sparsity, joint_zero_columns, sparsity_degree};
use zskip_core::{MaskedGradientPruner, OffsetEncoder, QuantizedLstm, StatePruner};
use zskip_nn::StateTransform;
use zskip_tensor::{GateLuts, Matrix, QMatrix, Quantizer};

fn state_matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-2.0f32..2.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

fn sparse_lanes() -> impl Strategy<Value = Vec<Vec<i8>>> {
    (1usize..=4, 1usize..=96).prop_flat_map(|(lanes, dh)| {
        proptest::collection::vec(
            proptest::collection::vec(prop_oneof![4 => Just(0i8), 1 => any::<i8>()], dh),
            lanes,
        )
    })
}

proptest! {
    #[test]
    fn prune_output_is_zero_or_at_threshold(
        m in state_matrix(6, 32),
        threshold in 0.0f32..1.5,
    ) {
        let pruner = StatePruner::new(threshold);
        let out = pruner.apply(&m);
        for v in out.as_slice() {
            prop_assert!(*v == 0.0 || v.abs() >= threshold,
                "value {v} violates Eq. 5 with T={threshold}");
        }
    }

    #[test]
    fn prune_is_idempotent(
        m in state_matrix(6, 32),
        threshold in 0.0f32..1.5,
    ) {
        let pruner = StatePruner::new(threshold);
        let once = pruner.apply(&m);
        prop_assert_eq!(pruner.apply(&once), once);
    }

    #[test]
    fn prune_sparsity_is_monotone_in_threshold(
        m in state_matrix(6, 32),
        t1 in 0.0f32..0.7,
        dt in 0.0f32..0.7,
    ) {
        let a = StatePruner::new(t1).apply(&m).sparsity();
        let b = StatePruner::new(t1 + dt).apply(&m).sparsity();
        prop_assert!(b >= a);
    }

    #[test]
    fn ste_and_masked_gradients_agree_on_survivors(
        m in state_matrix(4, 16),
        threshold in 0.0f32..1.0,
    ) {
        let grad = Matrix::from_fn(m.rows(), m.cols(), |r, c| ((r * 7 + c) as f32).sin());
        let ste = StatePruner::new(threshold).backward(&m, &grad);
        let masked = MaskedGradientPruner::new(threshold).backward(&m, &grad);
        for i in 0..m.len() {
            let h = m.as_slice()[i];
            if h.abs() >= threshold {
                prop_assert_eq!(ste.as_slice()[i], masked.as_slice()[i]);
            } else {
                prop_assert_eq!(masked.as_slice()[i], 0.0);
            }
        }
    }

    #[test]
    fn joint_sparsity_never_exceeds_elementwise(m in state_matrix(8, 48)) {
        prop_assert!(joint_sparsity(&m) <= sparsity_degree(&m) + 1e-12);
    }

    #[test]
    fn joint_zero_columns_match_joint_sparsity(m in state_matrix(8, 48)) {
        let cols = joint_zero_columns(&m);
        let frac = cols.iter().filter(|b| **b).count() as f64 / cols.len() as f64;
        prop_assert!((frac - joint_sparsity(&m)).abs() < 1e-12);
    }

    #[test]
    fn encoder_round_trips_any_lanes(
        lanes in sparse_lanes(),
        bits in 1u8..=16,
    ) {
        let enc = OffsetEncoder::new(bits);
        let state = enc.encode(&lanes);
        prop_assert_eq!(state.decode(), lanes);
    }

    #[test]
    fn encoder_accounting_is_consistent(
        lanes in sparse_lanes(),
        bits in 2u8..=10,
    ) {
        let enc = OffsetEncoder::new(bits);
        let state = enc.encode(&lanes);
        let dh = lanes[0].len();
        prop_assert_eq!(state.stored_columns() + state.skipped_columns(), dh);
        // Every truly non-zero column must be stored.
        let nonzero = (0..dh)
            .filter(|j| lanes.iter().any(|l| l[*j] != 0))
            .count();
        prop_assert!(state.stored_columns() >= nonzero);
        prop_assert_eq!(state.stored_columns() - nonzero, state.anchor_columns());
    }

    #[test]
    fn encoder_offsets_fit_field_width(
        lanes in sparse_lanes(),
        bits in 1u8..=8,
    ) {
        let enc = OffsetEncoder::new(bits);
        let state = enc.encode(&lanes);
        let max = enc.max_run();
        for col in state.columns() {
            prop_assert!(col.offset <= max);
        }
    }

    #[test]
    fn pruned_then_quantized_state_encodes_smaller_with_higher_threshold(
        m in state_matrix(1, 200),
    ) {
        let q = zskip_tensor::Quantizer::from_max_abs(2.0);
        let enc = OffsetEncoder::hardware_default();
        let small = enc.encode_f32(&StatePruner::new(0.1).apply(&m), q);
        let large = enc.encode_f32(&StatePruner::new(0.9).apply(&m), q);
        prop_assert!(large.stored_columns() <= small.stored_columns());
    }
}

/// One unit's four gates: a table index each (the bias is set to that
/// entry's centre pre-activation, so with zero accumulators the gate
/// value *is* `table[index]`) plus x-/h-side accumulators to add on top.
type UnitGates = Vec<(usize, i32, i32)>;

fn unit_gates() -> impl Strategy<Value = UnitGates> {
    proptest::collection::vec(
        (
            0usize..256,
            prop_oneof![1 => Just(0i32), 1 => -16129i32..=16129],
            prop_oneof![1 => Just(0i32), 1 => -400_000i32..=400_000],
        ),
        4,
    )
}

proptest! {
    /// The batched step's three bodies — portable, AVX2, and whichever
    /// the dispatch picks — equal the scalar reference chain
    /// `preactivation → activation → pointwise` unit for unit: gate
    /// values drawn from the hardware tables, every `c_prev` code in
    /// every case, thresholds including 0, and lane widths that leave
    /// scalar tails behind the 8-wide loop.
    #[test]
    fn batched_step_bodies_match_scalar_pointwise_bitwise(
        dh in 1usize..=21,
        threshold in prop_oneof![1 => Just(0.0f32), 3 => 0.0f32..0.6],
        units in proptest::collection::vec(unit_gates(), 21),
    ) {
        let luts = GateLuts::hardware();
        let wx = QMatrix::from_parts(1, 4 * dh, vec![0; 4 * dh], Quantizer::from_max_abs(0.5));
        let wh = QMatrix::from_parts(dh, 4 * dh, vec![1; 4 * dh * dh], Quantizer::from_max_abs(0.3));
        let bias: Vec<f32> = (0..4 * dh)
            .map(|k| {
                let lut = if k < 3 * dh { luts.sigmoid() } else { luts.tanh() };
                -lut.range() + units[k % dh][k / dh].0 as f32 / lut.position_scale()
            })
            .collect();
        let q = QuantizedLstm::from_parts(
            1,
            dh,
            wx.unwrap(),
            wh.unwrap(),
            bias,
            Quantizer::from_max_abs(1.0),
            Quantizer::from_max_abs(1.0),
            Quantizer::from_max_abs(4.0),
            luts,
            threshold,
        )
        .unwrap();

        // Enough lanes that the cell plane walks all 256 codes.
        let lanes = 256usize.div_ceil(dh);
        let c_prev: Vec<i8> = (0..lanes * dh).map(|u| (u % 256) as u8 as i8).collect();
        let mut zx = vec![0.0f32; lanes * 4 * dh];
        let mut acc_h = vec![0i32; lanes * 4 * dh];
        for lane in 0..lanes {
            for k in 0..4 * dh {
                // Rotate the accumulators across lanes so a code meets
                // different gate values in different cases.
                let (_, ax, ah) = units[(k + lane) % dh][k / dh];
                zx[lane * 4 * dh + k] = ax as f32;
                acc_h[lane * 4 * dh + k] = ah;
            }
        }

        let (mut h_ref, mut c_ref) = (vec![0i8; c_prev.len()], vec![0i8; c_prev.len()]);
        for (u, &code) in c_prev.iter().enumerate() {
            let (lane, j) = (u / dh, u % dh);
            let gate = |g: usize| {
                let k = lane * 4 * dh + g * dh + j;
                q.activation(g, q.preactivation(g * dh + j, zx[k] as i32, acc_h[k]))
            };
            (h_ref[u], c_ref[u]) = q.pointwise(gate(0), gate(1), gate(2), gate(3), code);
        }

        let (mut h, mut c) = (vec![i8::MIN; c_prev.len()], vec![i8::MIN; c_prev.len()]);
        q.step_lanes(&zx, &acc_h, &c_prev, &mut h, &mut c);
        prop_assert_eq!(&h, &h_ref, "dispatched hidden codes, dh {}", dh);
        prop_assert_eq!(&c, &c_ref, "dispatched cell codes, dh {}", dh);
        h.fill(i8::MIN);
        c.fill(i8::MIN);
        q.tail().step_portable(&zx, &acc_h, &c_prev, &mut h, &mut c);
        prop_assert_eq!(&h, &h_ref, "portable hidden codes, dh {}", dh);
        prop_assert_eq!(&c, &c_ref, "portable cell codes, dh {}", dh);
        #[cfg(target_arch = "x86_64")]
        if zskip_tensor::simd::use_avx2() {
            h.fill(i8::MIN);
            c.fill(i8::MIN);
            // SAFETY: AVX2 detected above.
            unsafe { q.tail().step_avx2(&zx, &acc_h, &c_prev, &mut h, &mut c) };
            prop_assert_eq!(&h, &h_ref, "avx2 hidden codes, dh {}", dh);
            prop_assert_eq!(&c, &c_ref, "avx2 cell codes, dh {}", dh);
        }
    }
}
