//! Property-based tests for the LSTM stack.

use proptest::prelude::*;
use zskip_nn::loss::softmax_cross_entropy;
use zskip_nn::models::{CarryState, Recurrent};
use zskip_nn::{Dropout, IdentityTransform, LstmCell, LstmLayer, Parameterized};
use zskip_tensor::{Matrix, SeedableStream};

fn batch(rows: usize, cols: usize, scale: f32, seed: u64) -> Matrix {
    let mut rng = SeedableStream::new(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.uniform(-scale, scale))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hidden_state_is_always_bounded(
        seed in 0u64..1000,
        b in 1usize..4,
        dx in 1usize..6,
        dh in 1usize..12,
        scale in 0.1f32..4.0,
    ) {
        // h = σ(·)·tanh(·) ∈ (-1, 1) regardless of weights or inputs.
        let mut rng = SeedableStream::new(seed);
        let cell = LstmCell::new(dx, dh, &mut rng);
        let step = cell.forward(
            &batch(b, dx, scale, seed ^ 1),
            &batch(b, dh, 1.0, seed ^ 2),
            &batch(b, dh, scale, seed ^ 3),
        );
        for v in step.h().as_slice() {
            prop_assert!(v.abs() <= 1.0, "h = {v}");
        }
    }

    #[test]
    fn cell_state_is_a_convex_ish_blend(
        seed in 0u64..1000,
        dh in 1usize..10,
    ) {
        // |c_t| ≤ |c_{t-1}| + 1 since f,i ∈ (0,1) and g ∈ (-1,1).
        let mut rng = SeedableStream::new(seed);
        let cell = LstmCell::new(3, dh, &mut rng);
        let c_prev = batch(2, dh, 3.0, seed ^ 7);
        let step = cell.forward(&batch(2, 3, 1.0, seed), &batch(2, dh, 1.0, seed ^ 5), &c_prev);
        for r in 0..2 {
            for j in 0..dh {
                prop_assert!(step.c()[(r, j)].abs() <= c_prev[(r, j)].abs() + 1.0 + 1e-5);
            }
        }
    }

    #[test]
    fn sequence_cache_is_causal(
        seed in 0u64..500,
        t_len in 1usize..6,
    ) {
        // Changing a later input must not change earlier states.
        let mut rng = SeedableStream::new(seed);
        let layer = LstmLayer::new(2, 4, &mut rng);
        let state = CarryState::zeros(1, 4);
        let xs: Vec<Matrix> = (0..t_len).map(|t| batch(1, 2, 1.0, seed + t as u64)).collect();
        let base = layer.forward_sequence(&xs, &state, &IdentityTransform);
        let mut xs2 = xs.clone();
        let last = xs2.last_mut().expect("non-empty");
        *last = batch(1, 2, 2.0, seed ^ 0xFFFF);
        let changed = layer.forward_sequence(&xs2, &state, &IdentityTransform);
        for t in 0..t_len - 1 {
            prop_assert_eq!(base.hp(t), changed.hp(t), "step {} changed acausally", t);
        }
    }

    #[test]
    fn softmax_gradient_rows_sum_to_zero(
        b in 1usize..5,
        v in 2usize..10,
        seed in 0u64..1000,
    ) {
        let logits = batch(b, v, 5.0, seed);
        let targets: Vec<usize> = (0..b).map(|i| i % v).collect();
        let out = softmax_cross_entropy(&logits, &targets);
        prop_assert!(out.loss.is_finite() && out.loss >= 0.0);
        for r in 0..b {
            let s: f32 = out.d_logits.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-5, "row {r} grad sum {s}");
        }
    }

    #[test]
    fn dropout_preserves_surviving_values_scaled(
        p in 0.0f32..0.9,
        seed in 0u64..1000,
    ) {
        let drop = Dropout::new(p);
        let x = batch(6, 6, 1.0, seed);
        let mut rng = SeedableStream::new(seed ^ 0xD0);
        let (y, _) = drop.forward(&x, &mut rng);
        let scale = 1.0 / (1.0 - p);
        for (a, b) in y.as_slice().iter().zip(x.as_slice()) {
            prop_assert!(*a == 0.0 || (a - b * scale).abs() < 1e-5);
        }
    }

    #[test]
    fn zero_grads_then_norm_is_zero(seed in 0u64..100) {
        let mut rng = SeedableStream::new(seed);
        let mut layer = LstmLayer::new(3, 5, &mut rng);
        // Accumulate something first.
        let xs = vec![batch(2, 3, 1.0, seed)];
        let cache = layer.forward_sequence(&xs, &CarryState::zeros(2, 5), &IdentityTransform);
        let d = vec![Matrix::from_fn(2, 5, |_, _| 1.0)];
        layer.backward_sequence(&cache, &d, &IdentityTransform, false);
        prop_assert!(layer.grad_norm() > 0.0);
        layer.zero_grads();
        prop_assert_eq!(layer.grad_norm(), 0.0);
    }

    #[test]
    fn bptt_depth_matters(
        seed in 0u64..300,
    ) {
        // Gradients through a longer unroll differ from a single step —
        // i.e. BPTT really propagates through time.
        let mut rng = SeedableStream::new(seed);
        let mut layer = LstmLayer::new(2, 3, &mut rng);
        let xs: Vec<Matrix> = (0..4).map(|t| batch(1, 2, 1.0, seed + 10 + t as u64)).collect();
        let state = CarryState::zeros(1, 3);

        let grad_norm_with = |layer: &mut LstmLayer, steps: usize| -> f32 {
            layer.zero_grads();
            let cache = layer.forward_sequence(&xs[..steps], &state, &IdentityTransform);
            let mut d: Vec<Matrix> = (0..steps).map(|_| Matrix::zeros(1, 3)).collect();
            *d.last_mut().expect("steps") = Matrix::from_fn(1, 3, |_, _| 1.0);
            layer.backward_sequence(&cache, &d, &IdentityTransform, false);
            layer.grad_norm()
        };
        let short = grad_norm_with(&mut layer, 1);
        let long = grad_norm_with(&mut layer, 4);
        prop_assert!((short - long).abs() > 1e-9, "unroll depth had no effect");
    }
}
