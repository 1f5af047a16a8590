//! Criterion micro-benchmarks of the computational kernels: the quantized
//! GEMV with and without zero skipping (the software analogue of the
//! accelerator's gain), the i8 family's batched post-GEMM tail, state
//! pruning, and the offset encoder.

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
    bench_quantized_pointwise,
    bench_prune,
    bench_encoder,
    bench_decode
);

criterion_main!(benches);
