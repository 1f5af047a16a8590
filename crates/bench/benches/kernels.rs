//! Criterion micro-benchmarks of the computational kernels: the quantized
//! GEMV with and without zero skipping (the software analogue of the
//! accelerator's gain), the f32 sparse-rows and dense-mode products, the
//! i8 family's batched post-GEMM tail, state pruning, and the offset
//! encoder.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use zskip_core::{OffsetEncoder, QuantizedLstm, StatePruner};
use zskip_nn::{LstmCell, StateTransform};
use zskip_tensor::{Matrix, QMatrix, SeedableStream};

/// A quantized state vector with the requested zero fraction.
fn sparse_codes(dh: usize, sparsity: f64, seed: u64) -> Vec<i8> {
    let mut rng = SeedableStream::new(seed);
    (0..dh)
        .map(|_| {
            if rng.coin(sparsity) {
                0
            } else {
                (rng.index(253) as i16 - 126) as i8
            }
        })
        .collect()
}

fn bench_gemv_skip(c: &mut Criterion) {
    let dh = 1000;
    let w = Matrix::from_fn(dh, 4 * dh, |r, k| ((r * 13 + k * 7) as f32 * 0.01).sin());
    let qw = QMatrix::from_matrix(&w);
    let mut group = c.benchmark_group("gemv_t_1000x4000");
    for sparsity in [0.0f64, 0.5, 0.81, 0.97] {
        let x = sparse_codes(dh, sparsity, 42);
        group.bench_with_input(
            BenchmarkId::new("skip_zero", format!("{:.0}%", sparsity * 100.0)),
            &x,
            |b, x| b.iter(|| black_box(qw.gemv_t_i32(black_box(x)))),
        );
    }
    group.finish();
}

fn bench_sparse_rows(c: &mut Criterion) {
    // The f32 serving kernel at serving shape (`dh = 512`, `Wh` is
    // 512 × 2048): dense baseline plus the offset-plan sparse-rows
    // product at increasing joint sparsity. Tracks the satellite
    // optimization of `matmul_sparse_rows` — record medians in
    // `docs/BENCH_RESULTS.md` before and after kernel changes.
    let dh = 512;
    let wh = Matrix::from_fn(dh, 4 * dh, |r, k| ((r * 13 + k * 7) as f32 * 0.001).sin());
    let mut rng = SeedableStream::new(17);
    for b in [1usize, 8] {
        let mut group = c.benchmark_group(format!("matmul_sparse_rows_512x2048_b{b}"));
        for sparsity in [0.0f64, 0.5, 0.8, 0.95] {
            let zero_cols: Vec<bool> = (0..dh).map(|_| rng.coin(sparsity)).collect();
            let h = Matrix::from_fn(b, dh, |_, c| {
                if zero_cols[c] {
                    0.0
                } else {
                    rng.uniform(0.1, 1.0)
                }
            });
            let active = h.jointly_nonzero_columns();
            group.bench_with_input(
                BenchmarkId::new("active_rows", format!("{:.0}%", sparsity * 100.0)),
                &h,
                |bench, h| bench.iter(|| black_box(h.matmul_sparse_rows(&wh, black_box(&active)))),
            );
        }
        group.finish();
    }
}

/// A `lanes × rows` state with a fraction `density` of non-zero
/// coefficients. `joint`: the zeros are column-joint — in each 64-row
/// chunk exactly `round(64 · density)` rows, spread evenly, are non-zero
/// in every lane and the rest zero in every lane. Otherwise each
/// coefficient is non-zero by its own coin, so the zeros differ per lane.
fn state_with_fill(lanes: usize, rows: usize, density: f64, joint: bool, seed: u64) -> Matrix {
    let mut rng = SeedableStream::new(seed);
    let kept = |r: usize| {
        let (i, d) = ((r % 64) as f64, density);
        ((i + 1.0) * d).round() > (i * d).round()
    };
    Matrix::from_fn(lanes, rows, |_, r| {
        let on = if joint { kept(r) } else { rng.coin(density) };
        if on {
            rng.uniform(0.1, 1.0)
        } else {
            0.0
        }
    })
}

/// `h · w` into a carried output, as the runtime's step scratch does.
fn dense_into(h: &Matrix, w: &Matrix, out: &mut Matrix) {
    Matrix::matmul_from_rows_into(black_box(h.as_slice()), h.rows(), w, out);
    black_box(out);
}

fn bench_matmul_dense(c: &mut Criterion) {
    // The dense-mode f32 product (`Matrix::matmul`, the runtime's
    // dense-fallback recurrent GEMM and its f32 head): the recurrent
    // shape (`dh = 512`, `Wh` 512 × 2048) and the head shape (512 × 64,
    // vocabulary 64) at 1, 4 and 16 lanes on unpruned states. Then two
    // sweeps over the coefficient fill that routes each 64-row chunk to
    // the register tile or the lane-outer loop: `_joint` with
    // column-joint zeros (the pruned states the runtime serves) and
    // `_fill` with zeros that differ per lane (threshold-pruned training
    // states), whose 8-lane blocks fall back to the lane-outer loop.
    let dh = 512;
    let mut out = Matrix::zeros(0, 0);
    let mut group = c.benchmark_group("matmul_dense");
    let mut case = |id: BenchmarkId, h: Matrix, w: &Matrix| {
        group.bench_with_input(id, &h, |b, h| b.iter(|| dense_into(h, w, &mut out)));
    };
    for cols in [4 * dh, 64] {
        let w = Matrix::from_fn(dh, cols, |r, k| ((r * 13 + k * 7) as f32 * 0.001).sin());
        let shape = format!("{dh}x{cols}");
        for lanes in [1usize, 4, 16] {
            let h = state_with_fill(lanes, dh, 1.0, true, 5);
            case(BenchmarkId::new(&shape, format!("b{lanes}")), h, &w);
        }
        for density in [0.10f64, 0.25, 0.50, 0.75, 1.0] {
            let h = state_with_fill(16, dh, density, true, 6);
            let pct = format!("{:.0}%", density * 100.0);
            case(BenchmarkId::new(format!("{shape}_b16_joint"), pct), h, &w);
        }
        if cols == 64 {
            continue;
        }
        for lanes in [4usize, 16] {
            for density in [0.50f64, 0.60, 0.75, 0.90] {
                let h = state_with_fill(lanes, dh, density, false, 7);
                let pct = format!("{:.0}%", density * 100.0);
                case(
                    BenchmarkId::new(format!("{shape}_b{lanes}_fill"), pct),
                    h,
                    &w,
                );
            }
        }
    }
    group.finish();
}

fn bench_quantized_pointwise(c: &mut Criterion) {
    // The i8 step's whole post-GEMM stage (`QLstmTail::step`: rescale,
    // LUT gates, cell update, prune, requantise, pack) at serving
    // shapes, portable body vs whatever the dispatch picks — the stage
    // that was 59% of the `sparse_batch_i8` step while it ran per unit.
    let mut group = c.benchmark_group("quantized_pointwise");
    for (dh, lanes) in [(128usize, 16usize), (512, 1), (512, 16)] {
        let mut rng = SeedableStream::new(dh as u64);
        let q = QuantizedLstm::from_cell(&LstmCell::new(64, dh, &mut rng), 0.1);
        let units = lanes * dh;
        let mut zx = vec![0.0f32; 4 * units];
        for row in zx.chunks_mut(4 * dh) {
            q.one_hot_accumulators_into(rng.index(64), row);
        }
        let h = sparse_codes(units, 0.9, 7);
        let acc_h = q.wh().gemm_t_i32(&h, lanes);
        let c_prev = sparse_codes(units, 0.0, 9);
        let (mut h_out, mut c_out) = (vec![0i8; units], vec![0i8; units]);
        let shape = format!("dh{dh}_b{lanes}");
        group.bench_function(BenchmarkId::new("portable", &shape), |b| {
            b.iter(|| {
                q.tail()
                    .step_portable(&zx, &acc_h, &c_prev, &mut h_out, &mut c_out);
                black_box(&mut h_out);
            })
        });
        group.bench_function(BenchmarkId::new("dispatched", &shape), |b| {
            b.iter(|| {
                q.step_lanes(&zx, &acc_h, &c_prev, &mut h_out, &mut c_out);
                black_box(&mut h_out);
            })
        });
    }
    group.finish();
}

fn bench_prune(c: &mut Criterion) {
    let h = Matrix::from_fn(64, 1000, |r, k| ((r + k) as f32 * 0.003).sin());
    let pruner = StatePruner::new(0.2);
    c.bench_function("prune_64x1000", |b| {
        b.iter(|| black_box(pruner.apply(black_box(&h))))
    });
}

fn bench_encoder(c: &mut Criterion) {
    let enc = OffsetEncoder::hardware_default();
    let mut group = c.benchmark_group("offset_encode_8x1000");
    for sparsity in [0.5f64, 0.81, 0.97] {
        let lanes: Vec<Vec<i8>> = (0..8)
            .map(|l| sparse_codes(1000, sparsity, l as u64))
            .collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{:.0}%", sparsity * 100.0)),
            &lanes,
            |b, lanes| b.iter(|| black_box(enc.encode(black_box(lanes)))),
        );
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let enc = OffsetEncoder::hardware_default();
    let lanes: Vec<Vec<i8>> = (0..8).map(|l| sparse_codes(1000, 0.81, l as u64)).collect();
    let state = enc.encode(&lanes);
    c.bench_function("offset_decode_8x1000", |b| {
        b.iter(|| black_box(state.decode()))
    });
}

criterion_group!(
    benches,
    bench_gemv_skip,
    bench_sparse_rows,
    bench_matmul_dense,
    bench_quantized_pointwise,
    bench_prune,
    bench_encoder,
    bench_decode
);

criterion_main!(benches);
