//! Property-based tests for the tensor substrate.

use proptest::prelude::*;
use std::cell::RefCell;
use zskip_tensor::{lut, Matrix, QFormat, QMatrix, QVector, Quantizer};

fn small_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

thread_local! {
    /// Output buffers carried from case to case, as a step scratch is
    /// carried from step to step when the batch width changes.
    static CARRIED_F32: RefCell<Matrix> = RefCell::new(Matrix::zeros(2, 3));
    static CARRIED_I32: RefCell<Vec<i32>> = RefCell::new(vec![0; 3]);
}

/// `h · w` over the `active` rows of `w`, through
/// [`Matrix::matmul_sparse_rows_from_into`] into the carried buffer —
/// still at the previous case's shape, and NaN-filled so a missed
/// zeroing shows.
fn sparse_matmul_carried(h: &Matrix, w: &Matrix, active: &[usize]) -> Matrix {
    CARRIED_F32.with(|carried| {
        let mut out = carried.borrow_mut();
        out.as_mut_slice().fill(f32::NAN);
        Matrix::matmul_sparse_rows_from_into(h.as_slice(), h.rows(), w, active, &mut out);
        out.clone()
    })
}

/// [`QMatrix::gemm_t_i32_sparse_rows_into`] into the carried buffer,
/// still at the previous case's length and garbage-filled.
fn sparse_gemm_t_carried(qm: &QMatrix, x: &[i8], lanes: usize, active: &[usize]) -> Vec<i32> {
    CARRIED_I32.with(|carried| {
        let mut out = carried.borrow_mut();
        out.fill(i32::MIN);
        qm.gemm_t_i32_sparse_rows_into(x, lanes, active, &mut out);
        out.clone()
    })
}

proptest! {
    #[test]
    fn transpose_is_involution(m in small_matrix(12)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn gemv_is_linear_in_x(
        m in small_matrix(8),
        alpha in -3.0f32..3.0,
    ) {
        let cols = m.cols();
        let x: Vec<f32> = (0..cols).map(|i| (i as f32 * 0.37).sin()).collect();
        let scaled: Vec<f32> = x.iter().map(|v| alpha * v).collect();
        let y1 = m.gemv(&scaled);
        let y0 = m.gemv(&x);
        for (a, b) in y1.iter().zip(&y0) {
            prop_assert!((a - alpha * b).abs() < 1e-2 * (1.0 + b.abs()),
                "{} vs {}", a, alpha * b);
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in small_matrix(6),
    ) {
        let k = a.cols();
        let b = Matrix::from_fn(k, 5, |r, c| ((r * 5 + c) as f32 * 0.11).cos());
        let c = Matrix::from_fn(k, 5, |r, c| ((r + c) as f32 * 0.23).sin());
        let mut b_plus_c = b.clone();
        b_plus_c.add_assign(&c);
        let lhs = a.matmul(&b_plus_c);
        let mut rhs = a.matmul(&b);
        rhs.add_assign(&a.matmul(&c));
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn matmul_nt_agrees_with_transpose(m in small_matrix(7)) {
        let n = Matrix::from_fn(4, m.cols(), |r, c| ((r * 3 + c) as f32 * 0.17).sin());
        let fast = m.matmul_nt(&n);
        let slow = m.matmul(&n.transpose());
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn quantizer_round_trip_bounded(
        max_abs in 0.01f32..100.0,
        x in -100.0f32..100.0,
    ) {
        let q = Quantizer::from_max_abs(max_abs);
        let back = q.dequantize(q.quantize(x));
        let clipped = x.clamp(-max_abs, max_abs);
        prop_assert!((back - clipped).abs() <= q.step() / 2.0 + 1e-5);
    }

    #[test]
    fn qvector_round_trip_error_bounded(
        xs in proptest::collection::vec(-5.0f32..5.0, 1..64),
    ) {
        let qv = QVector::from_f32(&xs);
        let back = qv.to_f32();
        let step = qv.quantizer().step();
        for (a, b) in back.iter().zip(&xs) {
            prop_assert!((a - b).abs() <= step / 2.0 + 1e-6);
        }
    }

    #[test]
    fn fixed_requantize_never_exceeds_rails(
        acc in any::<i32>(),
        frac in 6u8..16,
    ) {
        let q = QFormat::new(12, 6);
        let raw = q.requantize_raw(acc as i64, frac);
        prop_assert!(raw <= q.max_raw());
        prop_assert!(raw >= q.min_raw());
    }

    #[test]
    fn sparse_rows_matmul_is_bitwise_identical_to_dense(
        m in small_matrix(12),
        cols in 1usize..12,
        sparsity in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        // Prune whole columns of the left operand (every lane), then skip
        // exactly the jointly-zero columns — the serving runtime's sparse
        // recurrent kernel must be bit-identical to the dense product.
        let mut h = m.clone();
        let mut mask_rng = seed;
        for c in 0..h.cols() {
            mask_rng = mask_rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if (mask_rng >> 33) as f64 / (1u64 << 31) as f64 <= sparsity {
                for r in 0..h.rows() {
                    h[(r, c)] = 0.0;
                }
            }
        }
        let w = Matrix::from_fn(h.cols(), cols, |r, c| ((r * cols + c) as f32 * 0.13).sin());
        let active = h.jointly_nonzero_columns();
        let sparse = sparse_matmul_carried(&h, &w, &active);
        let dense = h.matmul(&w);
        prop_assert_eq!((sparse.rows(), sparse.cols()), (dense.rows(), dense.cols()));
        for (s, d) in sparse.as_slice().iter().zip(dense.as_slice()) {
            prop_assert_eq!(s.to_bits(), d.to_bits(), "{} vs {}", s, d);
        }
    }

    #[test]
    fn gemv_t_sparse_rows_equals_dense_restricted_to_active_rows(
        m in small_matrix(14),
        sparsity in 0.0f64..1.05,
        cover_all in any::<bool>(),
        seed in 0u64..1000,
    ) {
        // Random state codes with a random zero mask, and a random active
        // set: when `active` covers every non-zero row the sparse kernel
        // must equal the dense gemv_t exactly; in general it must equal
        // the dense gemv_t of the state *restricted* to the active rows
        // (codes outside the set zeroed) — including the all-zero and
        // all-active edge cases.
        let qm = QMatrix::from_matrix(&m);
        let rows = m.rows();
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || { s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407); s >> 32 };
        let x: Vec<i8> = (0..rows)
            .map(|_| {
                let keep = (next() & 0xFFFF) as f64 / 65536.0 >= sparsity;
                if keep { ((next() % 255) as i16 - 127) as i8 } else { 0 }
            })
            .collect();
        let active: Vec<usize> = (0..rows)
            .filter(|r| if cover_all { true } else { x[*r] != 0 || next() % 3 == 0 })
            .collect();
        let restricted: Vec<i8> = (0..rows)
            .map(|r| if active.binary_search(&r).is_ok() { x[r] } else { 0 })
            .collect();
        let reference = qm.gemv_t_i32(&restricted);
        prop_assert_eq!(&sparse_gemm_t_carried(&qm, &x, 1, &active), &reference);
        if restricted == x {
            prop_assert_eq!(&sparse_gemm_t_carried(&qm, &x, 1, &active), &qm.gemv_t_i32(&x));
        }
        // Edge cases on the same matrix: no active rows, all rows active.
        prop_assert_eq!(sparse_gemm_t_carried(&qm, &x, 1, &[]), vec![0i32; m.cols()]);
        let all: Vec<usize> = (0..rows).collect();
        prop_assert_eq!(&sparse_gemm_t_carried(&qm, &x, 1, &all), &qm.gemv_t_i32(&x));
    }

    #[test]
    fn batched_gemm_t_sparse_rows_equals_per_lane_gemv_t(
        m in small_matrix(10),
        lanes in 1usize..5,
        sparsity in 0.0f64..1.05,
        seed in 0u64..1000,
    ) {
        let qm = QMatrix::from_matrix(&m);
        let rows = m.rows();
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
        let mut next = || { s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407); s >> 32 };
        let flat: Vec<i8> = (0..lanes * rows)
            .map(|_| {
                let keep = (next() & 0xFFFF) as f64 / 65536.0 >= sparsity;
                if keep { ((next() % 255) as i16 - 127) as i8 } else { 0 }
            })
            .collect();
        // Jointly non-zero rows — what the batcher's skip plan stores.
        let active: Vec<usize> = (0..rows)
            .filter(|r| (0..lanes).any(|l| flat[l * rows + r] != 0))
            .collect();
        let sparse = sparse_gemm_t_carried(&qm, &flat, lanes, &active);
        let dense = qm.gemm_t_i32(&flat, lanes);
        for lane in 0..lanes {
            let reference = qm.gemv_t_i32(&flat[lane * rows..(lane + 1) * rows]);
            prop_assert_eq!(&sparse[lane * m.cols()..(lane + 1) * m.cols()], &reference[..]);
            prop_assert_eq!(&dense[lane * m.cols()..(lane + 1) * m.cols()], &reference[..]);
        }
    }

    #[test]
    fn lut_error_shrinks_with_entries(x in -4.0f32..4.0) {
        let coarse = lut::ActivationLut::new(lut::Activation::Tanh, 4.0, 128);
        let fine = lut::ActivationLut::new(lut::Activation::Tanh, 4.0, 8192);
        let exact = x.tanh();
        prop_assert!((fine.eval(x) - exact).abs() <= (coarse.eval(x) - exact).abs() + 1e-3);
    }
}
