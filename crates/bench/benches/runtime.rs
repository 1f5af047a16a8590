//! Criterion benchmarks of the serving runtime: dense vs sparse inference
//! step latency as a function of hidden-state sparsity, plus the raw
//! recurrent kernels.
//!
//! The headline comparison mirrors the paper's evaluation protocol: a
//! *dense* step is the inference step of an unpruned model (0% state
//! sparsity), a *sparse* step is the same engine stepping a
//! threshold-pruned state. The acceptance bar for `zskip-runtime` is the
//! sparse step at 80% sparsity beating the dense step by ≥ 2× at
//! `dh ≥ 512`. Record medians in `docs/BENCH_RESULTS.md`.

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use zskip_runtime::{
    BatchStep, DynamicBatcher, FrozenCharLm, FrozenGruCharLm, FrozenQuantizedCharLm, FrozenWordLm,
    SkipPolicy, StateLanes, StepScratch,
};
use zskip_tensor::{Matrix, SeedableStream};

const DH: usize = 512;
const VOCAB: usize = 64;
const SPARSITIES: [f64; 4] = [0.0, 0.5, 0.8, 0.95];

/// A `B × dh` state whose columns are zeroed with probability `sparsity`
/// *jointly across lanes* (the correlated pattern trained models show —
/// paper Fig. 5d: entire state columns stay below threshold).
fn sparse_state(b: usize, dh: usize, sparsity: f64, seed: u64) -> Matrix {
    let mut rng = SeedableStream::new(seed);
    let zero_cols: Vec<bool> = (0..dh).map(|_| rng.coin(sparsity)).collect();
    Matrix::from_fn(b, dh, |_, c| {
        if zero_cols[c] {
            0.0
        } else {
            // Survivors sit above a 0.1 threshold, like pruned states do.
            let v = rng.uniform(0.1, 1.0);
            if rng.coin(0.5) {
                v
            } else {
                -v
            }
        }
    })
}

fn bench_inference_step(c: &mut Criterion) {
    let model = FrozenCharLm::random(VOCAB, DH, 42);
    let batcher = DynamicBatcher::new(model, 0.1, SkipPolicy::default());
    let cell = StateLanes::from(Matrix::from_fn(1, DH, |_, j| ((j as f32) * 0.013).sin()));
    let mut group = c.benchmark_group(format!("inference_step_dh{DH}_b1"));
    for sparsity in SPARSITIES {
        let h = StateLanes::from(sparse_state(1, DH, sparsity, 7));
        group.bench_with_input(
            BenchmarkId::new("sparse_path", format!("{:.0}%", sparsity * 100.0)),
            &h,
            |b, h| {
                // Persistent scratch, exactly as the engine's steady
                // state runs: the step allocates nothing per iteration.
                let mut scratch = StepScratch::new();
                b.iter(|| {
                    black_box(batcher.step_into(
                        BatchStep {
                            h: black_box(h),
                            c: &cell,
                            inputs: &[3],
                        },
                        &mut scratch,
                    ))
                })
            },
        );
    }
    group.finish();
}

fn bench_inference_step_batched(c: &mut Criterion) {
    let model = FrozenCharLm::random(VOCAB, DH, 42);
    let batcher = DynamicBatcher::new(model, 0.1, SkipPolicy::default());
    let b8 = 8usize;
    let cell = StateLanes::from(Matrix::from_fn(b8, DH, |_, j| ((j as f32) * 0.013).sin()));
    let tokens: Vec<usize> = (0..b8).map(|i| i * 5 % VOCAB).collect();
    let mut group = c.benchmark_group(format!("inference_step_dh{DH}_b8"));
    for sparsity in SPARSITIES {
        let h = StateLanes::from(sparse_state(b8, DH, sparsity, 11));
        group.bench_with_input(
            BenchmarkId::new("sparse_path", format!("{:.0}%", sparsity * 100.0)),
            &h,
            |bch, h| {
                let mut scratch = StepScratch::new();
                bch.iter(|| {
                    black_box(batcher.step_into(
                        BatchStep {
                            h: black_box(h),
                            c: &cell,
                            inputs: &tokens,
                        },
                        &mut scratch,
                    ))
                })
            },
        );
    }
    group.finish();
}

fn bench_inference_step_lut(c: &mut Criterion) {
    // The same char-LM step under the shared f32 LUT activation
    // contract: gate planes go through the batched gather kernels
    // instead of 4·dh scalar `exp` calls. Directly comparable to
    // `inference_step_dh512_b1` — the ratio at 80%+ sparsity is the
    // scalar-activation-floor win (ROADMAP open item 1).
    let model = FrozenCharLm::random_lut(VOCAB, DH, 42);
    let batcher = DynamicBatcher::new(model, 0.1, SkipPolicy::default());
    let cell = StateLanes::from(Matrix::from_fn(1, DH, |_, j| ((j as f32) * 0.013).sin()));
    let mut group = c.benchmark_group(format!("inference_step_lut_dh{DH}_b1"));
    for sparsity in SPARSITIES {
        let h = StateLanes::from(sparse_state(1, DH, sparsity, 7));
        group.bench_with_input(
            BenchmarkId::new("sparse_path", format!("{:.0}%", sparsity * 100.0)),
            &h,
            |b, h| {
                let mut scratch = StepScratch::new();
                b.iter(|| {
                    black_box(batcher.step_into(
                        BatchStep {
                            h: black_box(h),
                            c: &cell,
                            inputs: &[3],
                        },
                        &mut scratch,
                    ))
                })
            },
        );
    }
    group.finish();
}

fn bench_inference_step_gru_lut(c: &mut Criterion) {
    // GRU twin of the LUT lane, against `runtime_gru_dh512_b1`.
    let model = FrozenGruCharLm::random_lut(VOCAB, DH, 42);
    let batcher = DynamicBatcher::new(model, 0.1, SkipPolicy::default());
    let cell = StateLanes::zeros(1, 0);
    let mut group = c.benchmark_group(format!("runtime_gru_lut_dh{DH}_b1"));
    for sparsity in SPARSITIES {
        let h = StateLanes::from(sparse_state(1, DH, sparsity, 7));
        group.bench_with_input(
            BenchmarkId::new("sparse_path", format!("{:.0}%", sparsity * 100.0)),
            &h,
            |b, h| {
                let mut scratch = StepScratch::new();
                b.iter(|| {
                    black_box(batcher.step_into(
                        BatchStep {
                            h: black_box(h),
                            c: &cell,
                            inputs: &[3],
                        },
                        &mut scratch,
                    ))
                })
            },
        );
    }
    group.finish();
}

fn bench_inference_step_gru(c: &mut Criterion) {
    // The GRU family through the same generic batcher: a 3-gate Wh
    // (dh × 3dh — 25% less recurrent work than the LSTM's 4 gates) and
    // no cell state. Sparse vs dense at the served sparsities; the
    // dense/sparse ratio is the family's skip speedup.
    let model = FrozenGruCharLm::random(VOCAB, DH, 42);
    let batcher = DynamicBatcher::new(model, 0.1, SkipPolicy::default());
    let cell = StateLanes::zeros(1, 0); // GRU sessions carry no cell state
    let mut group = c.benchmark_group(format!("runtime_gru_dh{DH}_b1"));
    for sparsity in SPARSITIES {
        let h = StateLanes::from(sparse_state(1, DH, sparsity, 7));
        group.bench_with_input(
            BenchmarkId::new("sparse_path", format!("{:.0}%", sparsity * 100.0)),
            &h,
            |b, h| {
                // Persistent scratch, exactly as the engine's steady
                // state runs: the step allocates nothing per iteration.
                let mut scratch = StepScratch::new();
                b.iter(|| {
                    black_box(batcher.step_into(
                        BatchStep {
                            h: black_box(h),
                            c: &cell,
                            inputs: &[3],
                        },
                        &mut scratch,
                    ))
                })
            },
        );
    }
    group.finish();
}

fn bench_inference_step_word_lm(c: &mut Criterion) {
    // The word-LM family: the input is an embedding row pushed through a
    // dense Wx GEMM every step (paper Fig. 8's smaller-speedup case), so
    // only the Wh half of the step shrinks with sparsity.
    const EMB: usize = 64;
    let model = FrozenWordLm::random(VOCAB, EMB, DH, 42);
    let batcher = DynamicBatcher::new(model, 0.1, SkipPolicy::default());
    let cell = StateLanes::from(Matrix::from_fn(1, DH, |_, j| ((j as f32) * 0.013).sin()));
    let mut group = c.benchmark_group(format!("runtime_word_lm_dh{DH}_emb{EMB}_b1"));
    for sparsity in SPARSITIES {
        let h = StateLanes::from(sparse_state(1, DH, sparsity, 7));
        group.bench_with_input(
            BenchmarkId::new("sparse_path", format!("{:.0}%", sparsity * 100.0)),
            &h,
            |b, h| {
                // Persistent scratch, exactly as the engine's steady
                // state runs: the step allocates nothing per iteration.
                let mut scratch = StepScratch::new();
                b.iter(|| {
                    black_box(batcher.step_into(
                        BatchStep {
                            h: black_box(h),
                            c: &cell,
                            inputs: &[3],
                        },
                        &mut scratch,
                    ))
                })
            },
        );
    }
    group.finish();
}

fn bench_inference_step_quantized(c: &mut Criterion) {
    // The 8-bit quantized family: i8 codes in, i8x i8 -> i32 skip-aware
    // accumulators, LUT gates, quantized head. Same dh/vocab/sparsities
    // as the f32 `inference_step_dh512_b1` lane so the two are directly
    // comparable: the quantized step moves a quarter of the weight bytes
    // per fetched row.
    let model = FrozenQuantizedCharLm::random(VOCAB, DH, 0.1, 42);
    let h_quant = model.quantized().h_quantizer();
    let c_quant = model.quantized().c_quantizer();
    let batcher = DynamicBatcher::new(model, 0.1, SkipPolicy::default());
    let cell = StateLanes::from_fn(1, DH, |_, j| c_quant.quantize(((j as f32) * 0.013).sin()));
    let mut group = c.benchmark_group(format!("runtime_quantized_dh{DH}_b1"));
    for sparsity in SPARSITIES {
        // The same column-correlated sparse pattern as the f32 lanes,
        // stored as codes (survivors are >= 0.1, so they never quantize
        // to code 0 and the sparsity carries over exactly).
        let hf = sparse_state(1, DH, sparsity, 7);
        let h = StateLanes::from_fn(1, DH, |r, j| h_quant.quantize(hf[(r, j)]));
        group.bench_with_input(
            BenchmarkId::new("sparse_path", format!("{:.0}%", sparsity * 100.0)),
            &h,
            |b, h| {
                // Persistent scratch, exactly as the engine's steady
                // state runs: the step allocates nothing per iteration.
                let mut scratch = StepScratch::new();
                b.iter(|| {
                    black_box(batcher.step_into(
                        BatchStep {
                            h: black_box(h),
                            c: &cell,
                            inputs: &[3],
                        },
                        &mut scratch,
                    ))
                })
            },
        );
    }
    group.finish();
}

fn bench_stage_timing_overhead(c: &mut Criterion) {
    // The cost of the stage clock itself: the identical 80%-sparse
    // char-LM step with per-stage laps enabled (the production default)
    // vs disabled. The delta is a handful of `Instant` reads per
    // *batched* step; record it in `docs/BENCH_RESULTS.md` so the
    // "telemetry is effectively free" claim stays pinned to a number.
    let model = FrozenCharLm::random(VOCAB, DH, 42);
    let batcher = DynamicBatcher::new(model, 0.1, SkipPolicy::default());
    let cell = StateLanes::from(Matrix::from_fn(1, DH, |_, j| ((j as f32) * 0.013).sin()));
    let h = StateLanes::from(sparse_state(1, DH, 0.8, 7));
    let mut group = c.benchmark_group(format!("stage_timing_dh{DH}_b1_80%"));
    for (label, enabled) in [("on", true), ("off", false)] {
        group.bench_with_input(BenchmarkId::new("telemetry", label), &h, |b, h| {
            let mut scratch = StepScratch::with_stage_timing(enabled);
            b.iter(|| {
                black_box(batcher.step_into(
                    BatchStep {
                        h: black_box(h),
                        c: &cell,
                        inputs: &[3],
                    },
                    &mut scratch,
                ))
            })
        });
    }
    group.finish();
}

fn bench_recurrent_kernel(c: &mut Criterion) {
    // The raw kernels, isolated from gates/head: the offset-encoded
    // sparse-rows product vs the value-skipping dense GEMM on the same
    // pruned state, and the dense GEMM on an unpruned state as baseline.
    let wh = Matrix::from_fn(DH, 4 * DH, |r, k| ((r * 13 + k * 7) as f32 * 0.001).sin());
    let mut group = c.benchmark_group(format!("recurrent_kernel_dh{DH}_b1"));
    let dense_h = sparse_state(1, DH, 0.0, 3);
    group.bench_with_input(BenchmarkId::new("dense_state", "0%"), &dense_h, |b, h| {
        b.iter(|| black_box(h.matmul(&wh)))
    });
    for sparsity in [0.5, 0.8, 0.95] {
        let h = sparse_state(1, DH, sparsity, 3);
        let active = h.jointly_nonzero_columns();
        group.bench_with_input(
            BenchmarkId::new("sparse_rows", format!("{:.0}%", sparsity * 100.0)),
            &h,
            |b, h| b.iter(|| black_box(h.matmul_sparse_rows(&wh, black_box(&active)))),
        );
        group.bench_with_input(
            BenchmarkId::new("value_skip_gemm", format!("{:.0}%", sparsity * 100.0)),
            &h,
            |b, h| b.iter(|| black_box(h.matmul(&wh))),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_inference_step,
    bench_inference_step_lut,
    bench_inference_step_batched,
    bench_inference_step_gru,
    bench_inference_step_gru_lut,
    bench_inference_step_word_lm,
    bench_inference_step_quantized,
    bench_stage_timing_overhead,
    bench_recurrent_kernel
);

/// Steps a char-LM batcher at 80% state sparsity with stage timing on
/// and returns `(mean step nanos, pointwise share of step time in %)`
/// from the accumulated [`zskip_runtime::StageBreakdown`]. This is the
/// number the LUT tentpole is judged on: the smooth pointwise stage was
/// ~90% of the step at served skip rates (PR 6), and the batched gather
/// kernels must pull that share down, not just shave the total.
fn pointwise_share(model: FrozenCharLm, rounds: u32) -> (f64, f64) {
    use zskip_runtime::Stage;
    let batcher = DynamicBatcher::new(model, 0.1, SkipPolicy::default());
    let h = StateLanes::from(sparse_state(1, DH, 0.8, 7));
    let cell = StateLanes::from(Matrix::from_fn(1, DH, |_, j| ((j as f32) * 0.013).sin()));
    let mut scratch = StepScratch::with_stage_timing(true);
    for _ in 0..64 {
        black_box(batcher.step_into(
            BatchStep {
                h: &h,
                c: &cell,
                inputs: &[3],
            },
            &mut scratch,
        ));
    }
    let _ = scratch.stages.take();
    for _ in 0..rounds {
        black_box(batcher.step_into(
            BatchStep {
                h: &h,
                c: &cell,
                inputs: &[3],
            },
            &mut scratch,
        ));
    }
    let breakdown = scratch.stages.take();
    let total = breakdown.total() as f64;
    let pointwise = breakdown.get(Stage::Pointwise) as f64;
    (total / f64::from(rounds), pointwise / total * 100.0)
}

/// Runs the groups, then drops every measured median into
/// `BENCH_runtime.json` (see `zskip_bench::evidence`): the evidence file
/// is what `docs/BENCH_RESULTS.md` entries cite, schema-checked by
/// `bench_compare --schema-only`.
fn main() {
    benches();
    let mut evidence = zskip_bench::Evidence::new("runtime");
    for m in criterion::take_measurements() {
        evidence = evidence.metric(&m.id, m.median_nanos);
    }
    const SHARE_ROUNDS: u32 = 4096;
    let (smooth_ns, smooth_share) =
        pointwise_share(FrozenCharLm::random(VOCAB, DH, 42), SHARE_ROUNDS);
    let (lut_ns, lut_share) =
        pointwise_share(FrozenCharLm::random_lut(VOCAB, DH, 42), SHARE_ROUNDS);
    eprintln!(
        "pointwise share @80% sparsity, dh={DH}: smooth {smooth_share:.1}% of {smooth_ns:.0} ns, \
         lut {lut_share:.1}% of {lut_ns:.0} ns"
    );
    evidence = evidence
        .metric(
            "stage_share_dh512_b1_80%/pointwise_pct/smooth",
            smooth_share,
        )
        .metric("stage_share_dh512_b1_80%/pointwise_pct/lut", lut_share)
        .metric("stage_share_dh512_b1_80%/step_ns/smooth", smooth_ns)
        .metric("stage_share_dh512_b1_80%/step_ns/lut", lut_ns);
    match evidence.write() {
        Ok(path) => eprintln!("bench evidence: {}", path.display()),
        Err(e) => eprintln!("bench evidence write failed: {e}"),
    }
}
