//! Property tests for the serving runtime.
//!
//! The contracts that make the runtime trustworthy:
//!
//! 1. **Training/serving equivalence, per family** — a frozen engine
//!    session produces bit-identical pruned states and logits to the
//!    training stack's forward pass (dense and pruned thresholds alike),
//!    for every served family: LSTM char-LM, 3-gate GRU char-LM,
//!    embedding-input word-LM and the pixel-streaming classifier.
//! 2. **Sparse/dense kernel equivalence** — the skip path is
//!    bit-identical to the dense fallback on the same state.
//! 3. **Batching transparency** — interleaving sessions into shared
//!    batched steps produces exactly the outputs each session gets when
//!    stepped alone.
//! 4. **Scheduler fairness** — under arbitrary open/submit/close churn,
//!    the ready-queue steps every session with queued inputs within a
//!    bounded number of engine steps, and no stale generational
//!    [`SessionId`] is ever delivered or resolved.

use proptest::prelude::*;
use std::collections::HashMap;
use zskip_core::{QuantizedLstm, StatePruner};
use zskip_nn::models::{CarryState, CharLm, GruCharLm, SeqClassifier, WordLm};
use zskip_nn::{GruCell, Linear, ParamVisitor, Parameterized, StateTransform};
use zskip_runtime::{
    BatchStep, DynamicBatcher, Embedding, Engine, EngineConfig, EngineError, Frozen, FrozenCharLm,
    FrozenGru, FrozenGruCharLm, FrozenHead, FrozenModel, FrozenQuantizedCharLm,
    FrozenSeqClassifier, FrozenWordLm, HeadScratch, ModelSnapshot, SessionId, SkipPolicy,
    StateLanes,
};
use zskip_tensor::{GateActivations, Matrix, SeedableStream};

fn frozen(vocab: usize, hidden: usize, seed: u64) -> (CharLm, FrozenCharLm) {
    let mut rng = SeedableStream::new(seed);
    let mut model = CharLm::new(vocab, hidden, &mut rng);
    let f = FrozenCharLm::freeze(&mut model);
    (model, f)
}

fn batcher<M: FrozenModel>(f: M, threshold: f32, dense_fallback: f64) -> DynamicBatcher<M> {
    DynamicBatcher::new(
        f,
        threshold,
        SkipPolicy {
            offset_bits: 8,
            dense_fallback,
        },
    )
}

/// Asserts two logit slices are bit-for-bit equal.
fn assert_bits(a: &[f32], b: &[f32], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: width");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}: {x} vs {y}");
    }
}

/// Runs `tokens` through a fresh engine over `frozen` and compares every
/// delivered logit row bit-for-bit against `reference` (one row per step).
fn engine_replays_reference<M: FrozenModel<Input = usize>>(
    frozen: M,
    threshold: f32,
    tokens: &[usize],
    reference: &[Matrix],
    family: &str,
) {
    let mut engine = Engine::new(frozen, EngineConfig::for_threshold(threshold));
    let id = engine.open_session();
    for &t in tokens {
        engine.submit(id, t).unwrap();
    }
    let delivered = engine.run_until_idle();
    prop_assert_eq!(delivered.len(), tokens.len());
    for (t, step_ref) in reference.iter().enumerate() {
        let result = engine.poll(id).unwrap().expect("one result per step");
        assert_bits(
            &result.logits,
            step_ref.row(0),
            &format!("{family} step {t}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sparse path and the forced-dense path agree bit-for-bit for
    /// random shapes, sparsity levels and thresholds (LSTM family).
    #[test]
    fn sparse_and_dense_paths_are_bitwise_identical(
        seed in 0u64..1000,
        vocab in 4usize..24,
        hidden in 1usize..48,
        b in 1usize..6,
        threshold in 0.0f32..0.8,
    ) {
        let (_, f) = frozen(vocab, hidden, seed);
        let sparse = batcher(f.clone(), threshold, 1.1);  // always sparse
        let dense = batcher(f, threshold, 0.0);           // always dense
        let pruner = StatePruner::new(threshold);
        let mut rng = SeedableStream::new(seed ^ 0xABCD);
        let h = StateLanes::from(
            pruner.apply(&Matrix::from_fn(b, hidden, |_, _| rng.uniform(-1.0, 1.0))));
        let c = StateLanes::from(
            Matrix::from_fn(b, hidden, |_, _| rng.uniform(-1.0, 1.0)));
        let tokens: Vec<usize> = (0..b).map(|_| rng.index(vocab)).collect();

        let s = sparse.step(BatchStep { h: &h, c: &c, inputs: &tokens });
        let d = dense.step(BatchStep { h: &h, c: &c, inputs: &tokens });
        prop_assert!(s.stats.used_sparse_path);
        prop_assert!(!d.stats.used_sparse_path);
        assert_bits(s.h.as_slice(), d.h.as_slice(), "h");
        assert_bits(s.c.as_slice(), d.c.as_slice(), "c");
        assert_bits(s.logits.as_slice(), d.logits.as_slice(), "logits");
    }

    /// GRU variant of the kernel equivalence: the 3-gate `Wh` product
    /// under the skip plan is bit-identical to the dense product.
    #[test]
    fn gru_sparse_and_dense_paths_are_bitwise_identical(
        seed in 0u64..1000,
        vocab in 4usize..24,
        hidden in 1usize..48,
        b in 1usize..6,
        threshold in 0.0f32..0.8,
    ) {
        let mut rng = SeedableStream::new(seed);
        let mut model = GruCharLm::new(vocab, hidden, &mut rng);
        let f = FrozenGruCharLm::freeze(&mut model);
        let sparse = batcher(f.clone(), threshold, 1.1);
        let dense = batcher(f, threshold, 0.0);
        let pruner = StatePruner::new(threshold);
        let mut rng = SeedableStream::new(seed ^ 0x77);
        let h = StateLanes::from(
            pruner.apply(&Matrix::from_fn(b, hidden, |_, _| rng.uniform(-1.0, 1.0))));
        let c = StateLanes::zeros(b, 0);
        let tokens: Vec<usize> = (0..b).map(|_| rng.index(vocab)).collect();

        let s = sparse.step(BatchStep { h: &h, c: &c, inputs: &tokens });
        let d = dense.step(BatchStep { h: &h, c: &c, inputs: &tokens });
        prop_assert!(s.stats.used_sparse_path);
        prop_assert!(!d.stats.used_sparse_path);
        assert_bits(s.h.as_slice(), d.h.as_slice(), "h");
        assert_bits(s.logits.as_slice(), d.logits.as_slice(), "logits");
    }

    /// A frozen engine session replays the LSTM char-LM training forward
    /// pass bit-for-bit: same pruned states, same logits, token by token.
    #[test]
    fn engine_matches_training_forward_bitwise(
        seed in 0u64..1000,
        vocab in 4usize..20,
        hidden in 2usize..32,
        steps in 1usize..8,
        threshold in 0.0f32..0.6,
    ) {
        let (model, f) = frozen(vocab, hidden, seed);
        let mut rng = SeedableStream::new(seed ^ 0x5151);
        let tokens: Vec<usize> = (0..steps).map(|_| rng.index(vocab)).collect();

        // Reference: the training model, one window of the same tokens.
        let pruner = StatePruner::new(threshold);
        let inputs: Vec<Vec<usize>> = tokens.iter().map(|t| vec![*t]).collect();
        let mut state = CarryState::zeros(1, hidden);
        let trace = model.state_trace(&inputs, &mut state, &pruner);
        let reference: Vec<Matrix> =
            trace.iter().map(|s| model.head().forward(s)).collect();
        engine_replays_reference(f, threshold, &tokens, &reference, "char-lm");
    }

    /// The GRU family: frozen engine stepping replays
    /// `GruCharLm::state_trace` + head bit-for-bit (dense and pruned).
    #[test]
    fn gru_engine_matches_training_forward_bitwise(
        seed in 0u64..1000,
        vocab in 4usize..20,
        hidden in 2usize..32,
        steps in 1usize..8,
        threshold in 0.0f32..0.6,
    ) {
        let mut rng = SeedableStream::new(seed);
        let mut model = GruCharLm::new(vocab, hidden, &mut rng);
        let f = FrozenGruCharLm::freeze(&mut model);
        let mut rng = SeedableStream::new(seed ^ 0x1DE);
        let tokens: Vec<usize> = (0..steps).map(|_| rng.index(vocab)).collect();

        let pruner = StatePruner::new(threshold);
        let inputs: Vec<Vec<usize>> = tokens.iter().map(|t| vec![*t]).collect();
        let mut state = CarryState::zeros(1, hidden);
        let trace = model.state_trace(&inputs, &mut state, &pruner);
        let reference: Vec<Matrix> =
            trace.iter().map(|s| model.head().forward(s)).collect();
        engine_replays_reference(f, threshold, &tokens, &reference, "gru");
    }

    /// The LUT activation contract, LSTM family: a char-LM trained with
    /// the shared f32 tables is served bit-for-bit by the frozen engine —
    /// the batched (AVX2-dispatched) serving kernels replay the training
    /// cell's element-wise table walks exactly.
    #[test]
    fn lut_engine_matches_training_forward_bitwise(
        seed in 0u64..1000,
        vocab in 4usize..20,
        hidden in 2usize..32,
        steps in 1usize..8,
        threshold in 0.0f32..0.6,
    ) {
        let mut rng = SeedableStream::new(seed);
        let mut model =
            CharLm::with_activations(vocab, hidden, GateActivations::lut_f32(), &mut rng);
        let f = FrozenCharLm::freeze(&mut model);
        let mut rng = SeedableStream::new(seed ^ 0x5151);
        let tokens: Vec<usize> = (0..steps).map(|_| rng.index(vocab)).collect();

        let pruner = StatePruner::new(threshold);
        let inputs: Vec<Vec<usize>> = tokens.iter().map(|t| vec![*t]).collect();
        let mut state = CarryState::zeros(1, hidden);
        let trace = model.state_trace(&inputs, &mut state, &pruner);
        let reference: Vec<Matrix> =
            trace.iter().map(|s| model.head().forward(s)).collect();
        engine_replays_reference(f, threshold, &tokens, &reference, "lut char-lm");
    }

    /// The LUT activation contract, GRU family: same bitwise replay for
    /// the 3-gate cell (sigmoid plane + reset-scaled tanh plane).
    #[test]
    fn lut_gru_engine_matches_training_forward_bitwise(
        seed in 0u64..1000,
        vocab in 4usize..20,
        hidden in 2usize..32,
        steps in 1usize..8,
        threshold in 0.0f32..0.6,
    ) {
        let mut rng = SeedableStream::new(seed);
        let mut model =
            GruCharLm::with_activations(vocab, hidden, GateActivations::lut_f32(), &mut rng);
        let f = FrozenGruCharLm::freeze(&mut model);
        let mut rng = SeedableStream::new(seed ^ 0x1DE);
        let tokens: Vec<usize> = (0..steps).map(|_| rng.index(vocab)).collect();

        let pruner = StatePruner::new(threshold);
        let inputs: Vec<Vec<usize>> = tokens.iter().map(|t| vec![*t]).collect();
        let mut state = CarryState::zeros(1, hidden);
        let trace = model.state_trace(&inputs, &mut state, &pruner);
        let reference: Vec<Matrix> =
            trace.iter().map(|s| model.head().forward(s)).collect();
        engine_replays_reference(f, threshold, &tokens, &reference, "lut gru");
    }

    /// The LUT activation contract, word-LM family: the embedding input
    /// and dense `Wx` stay plain f32, the recurrent gates walk the
    /// shared tables — frozen serving replays training bit-for-bit.
    #[test]
    fn lut_word_lm_engine_matches_training_forward_bitwise(
        seed in 0u64..1000,
        vocab in 6usize..40,
        emb in 2usize..12,
        hidden in 2usize..24,
        steps in 1usize..8,
        threshold in 0.0f32..0.6,
    ) {
        let mut rng = SeedableStream::new(seed);
        let mut model = WordLm::with_activations(
            vocab, emb, hidden, 0.5, GateActivations::lut_f32(), &mut rng);
        let f = FrozenWordLm::freeze(&mut model);
        let mut rng = SeedableStream::new(seed ^ 0x60D);
        let tokens: Vec<usize> = (0..steps).map(|_| rng.index(vocab)).collect();

        let pruner = StatePruner::new(threshold);
        let inputs: Vec<Vec<usize>> = tokens.iter().map(|t| vec![*t]).collect();
        let mut state = CarryState::zeros(1, hidden);
        let trace = model.state_trace(&inputs, &mut state, &pruner);
        let reference: Vec<Matrix> =
            trace.iter().map(|s| model.head().forward(s)).collect();
        engine_replays_reference(f, threshold, &tokens, &reference, "lut word-lm");
    }

    /// The LUT activation contract, classifier family: pixel-scan steps
    /// through the LUT LSTM cell, final-state head bit-identical to the
    /// training trace at every prefix.
    #[test]
    fn lut_seq_classifier_engine_matches_training_forward_bitwise(
        seed in 0u64..1000,
        classes in 2usize..8,
        hidden in 2usize..24,
        pixels in proptest::collection::vec(0.0f32..1.0, 1..8),
        threshold in 0.0f32..0.6,
    ) {
        let mut rng = SeedableStream::new(seed);
        let mut model = SeqClassifier::with_activations(
            classes, 1, hidden, GateActivations::lut_f32(), &mut rng);
        let f = FrozenSeqClassifier::freeze(&mut model);

        let pruner = StatePruner::new(threshold);
        let steps: Vec<Vec<f32>> = pixels.iter().map(|p| vec![*p]).collect();
        let trace = model.state_trace(&steps, &pruner);

        let mut engine = Engine::new(f, EngineConfig::for_threshold(threshold));
        let id = engine.open_session();
        for &p in &pixels {
            engine.submit(id, p).unwrap();
        }
        let delivered = engine.run_until_idle();
        prop_assert_eq!(delivered.len(), pixels.len());
        for (t, state) in trace.iter().enumerate() {
            let result = engine.poll(id).unwrap().expect("one result per pixel");
            let reference = model.head().forward(state);
            assert_bits(&result.logits, reference.row(0), &format!("lut classifier step {t}"));
        }
    }

    /// The word-LM family: embedding lookup input, dense `Wx` GEMM —
    /// frozen engine stepping replays the dropout-free eval forward
    /// bit-for-bit.
    #[test]
    fn word_lm_engine_matches_training_forward_bitwise(
        seed in 0u64..1000,
        vocab in 6usize..40,
        emb in 2usize..12,
        hidden in 2usize..24,
        steps in 1usize..8,
        threshold in 0.0f32..0.6,
    ) {
        let mut rng = SeedableStream::new(seed);
        let mut model = WordLm::new(vocab, emb, hidden, 0.5, &mut rng);
        let f = FrozenWordLm::freeze(&mut model);
        let mut rng = SeedableStream::new(seed ^ 0x60D);
        let tokens: Vec<usize> = (0..steps).map(|_| rng.index(vocab)).collect();

        let pruner = StatePruner::new(threshold);
        let inputs: Vec<Vec<usize>> = tokens.iter().map(|t| vec![*t]).collect();
        let mut state = CarryState::zeros(1, hidden);
        let trace = model.state_trace(&inputs, &mut state, &pruner);
        let reference: Vec<Matrix> =
            trace.iter().map(|s| model.head().forward(s)).collect();
        engine_replays_reference(f, threshold, &tokens, &reference, "word-lm");
    }

    /// The classifier family: one pixel per engine step; each delivered
    /// logit row is the final-state head applied to the state prefix,
    /// bit-identical to `SeqClassifier::state_trace` + head.
    #[test]
    fn seq_classifier_engine_matches_training_forward_bitwise(
        seed in 0u64..1000,
        classes in 2usize..8,
        hidden in 2usize..24,
        pixels in proptest::collection::vec(0.0f32..1.0, 1..8),
        threshold in 0.0f32..0.6,
    ) {
        let mut rng = SeedableStream::new(seed);
        let mut model = SeqClassifier::new(classes, hidden, &mut rng);
        let f = FrozenSeqClassifier::freeze(&mut model);

        let pruner = StatePruner::new(threshold);
        let steps: Vec<Vec<f32>> = pixels.iter().map(|p| vec![*p]).collect();
        let trace = model.state_trace(&steps, &pruner);

        let mut engine = Engine::new(f, EngineConfig::for_threshold(threshold));
        let id = engine.open_session();
        for &p in &pixels {
            engine.submit(id, p).unwrap();
        }
        let delivered = engine.run_until_idle();
        prop_assert_eq!(delivered.len(), pixels.len());
        for (t, state) in trace.iter().enumerate() {
            let result = engine.poll(id).unwrap().expect("one result per pixel");
            let reference = model.head().forward(state);
            assert_bits(&result.logits, reference.row(0), &format!("classifier step {t}"));
        }
    }

    /// The quantized family's headline contract: every lane of a batched
    /// serving step — sparse plan *and* forced-dense plan — produces
    /// **bit-identical** `i8` state codes to `zskip_core::QuantizedLstm`
    /// (the golden integer model the accelerator's functional tiles are
    /// verified against), over random cells, batch compositions, code
    /// states and pruning thresholds, carried through time.
    #[test]
    fn quantized_steps_match_reference_states_bitwise(
        seed in 0u64..1000,
        vocab in 4usize..20,
        hidden in 2usize..32,
        b in 1usize..6,
        steps in 1usize..6,
        threshold in 0.0f32..0.6,
    ) {
        let mut rng = SeedableStream::new(seed);
        let mut model = CharLm::new(vocab, hidden, &mut rng);
        let f = FrozenQuantizedCharLm::freeze(&mut model, threshold);
        let reference = QuantizedLstm::from_cell(model.lstm().cell(), threshold);
        let sparse = batcher(f.clone(), threshold, 1.1); // always sparse
        let dense = batcher(f, threshold, 0.0);          // always dense

        // Random starting codes per lane (the quantizer's code range,
        // with a bias toward zeros so the skip plan has work to do).
        let mut rng = SeedableStream::new(seed ^ 0x0DD);
        let mut h_lanes: Vec<Vec<i8>> = (0..b)
            .map(|_| (0..hidden)
                .map(|_| if rng.coin(0.5) { 0 } else { (rng.index(255) as i16 - 127) as i8 })
                .collect())
            .collect();
        let mut c_lanes: Vec<Vec<i8>> = (0..b)
            .map(|_| (0..hidden)
                .map(|_| (rng.index(255) as i16 - 127) as i8)
                .collect())
            .collect();

        for t in 0..steps {
            let tokens: Vec<usize> = (0..b).map(|_| rng.index(vocab)).collect();
            let h = StateLanes::from_vec(b, hidden, h_lanes.concat());
            let c = StateLanes::from_vec(b, hidden, c_lanes.concat());
            let s = sparse.step(BatchStep { h: &h, c: &c, inputs: &tokens });
            let d = dense.step(BatchStep { h: &h, c: &c, inputs: &tokens });
            prop_assert!(s.stats.used_sparse_path);
            prop_assert!(!d.stats.used_sparse_path);
            for (lane, &tok) in tokens.iter().enumerate() {
                // Golden reference: the sequential integer step on this
                // lane's codes alone.
                let mut one_hot = vec![0.0f32; vocab];
                one_hot[tok] = 1.0;
                let xq = reference.quantize_input(&one_hot);
                let step = reference.step(&xq, &h_lanes[lane], &c_lanes[lane]);
                prop_assert_eq!(s.h.row(lane), &step.h[..], "sparse h, t={} lane={}", t, lane);
                prop_assert_eq!(s.c.row(lane), &step.c[..], "sparse c, t={} lane={}", t, lane);
                prop_assert_eq!(d.h.row(lane), &step.h[..], "dense h, t={} lane={}", t, lane);
                prop_assert_eq!(d.c.row(lane), &step.c[..], "dense c, t={} lane={}", t, lane);
                h_lanes[lane] = step.h;
                c_lanes[lane] = step.c;
            }
            assert_bits(s.logits.as_slice(), d.logits.as_slice(), "quantized logits");
        }
    }

    /// The quantized family end-to-end through the `Engine`: a served
    /// session's logits at every timestep are the quantized head applied
    /// to exactly the reference's state trace — the integer path joins
    /// the per-family frozen-vs-reference pattern.
    #[test]
    fn quantized_engine_matches_reference_bitwise(
        seed in 0u64..1000,
        vocab in 4usize..20,
        hidden in 2usize..32,
        steps in 1usize..8,
        threshold in 0.0f32..0.6,
    ) {
        let mut rng = SeedableStream::new(seed);
        let mut model = CharLm::new(vocab, hidden, &mut rng);
        let f = FrozenQuantizedCharLm::freeze(&mut model, threshold);
        let reference = QuantizedLstm::from_cell(model.lstm().cell(), threshold);
        let mut rng = SeedableStream::new(seed ^ 0x8A1);
        let tokens: Vec<usize> = (0..steps).map(|_| rng.index(vocab)).collect();

        // Reference: sequential QuantizedLstm from zero codes, head on
        // each step's stored state.
        let inputs: Vec<Vec<i8>> = tokens.iter().map(|&t| {
            let mut one_hot = vec![0.0f32; vocab];
            one_hot[t] = 1.0;
            reference.quantize_input(&one_hot)
        }).collect();
        let trace = reference.run_sequence(&inputs);
        let expected: Vec<Matrix> = trace.iter()
            .map(|s| {
                let mut head = HeadScratch::new();
                f.head(&StateLanes::from_vec(1, hidden, s.h.clone()), &mut head);
                head.logits
            })
            .collect();
        engine_replays_reference(f, threshold, &tokens, &expected, "quantized");
    }

    /// A sixth composition nobody wrote a family for: a GRU word-LM,
    /// `Frozen<Embedding, FrozenGru, FrozenHead>`, assembled here from
    /// `zskip-nn` parts and served through the unchanged `Engine`. Every
    /// logit is pinned to `Embedding::forward → GruCell::forward →
    /// StatePruner::apply → Linear::forward` — the proof that the
    /// encoder/cell seam sits where the cells need it (the GRU's dense
    /// x-side carries the bias; the LSTM's does not).
    #[test]
    fn gru_word_lm_composition_matches_nn_parts_bitwise(
        seed in 0u64..1000,
        vocab in 6usize..40,
        emb in 2usize..12,
        hidden in 2usize..24,
        steps in 1usize..8,
        threshold in prop_oneof![Just(0.0f32), 0.0f32..0.6],
        lut in any::<bool>(),
    ) {
        let acts = if lut { GateActivations::lut_f32() } else { GateActivations::Smooth };
        let mut rng = SeedableStream::new(seed);
        let embedding = zskip_nn::Embedding::new(vocab, emb, &mut rng);
        let mut cell = GruCell::with_activations(emb, hidden, acts, &mut rng);
        // A fresh cell's bias is zero; a trained one's is not, and the
        // bias is what tells the x-side seam apart.
        cell.visit_params(&mut RandomBias(&mut rng));
        let linear = Linear::new(hidden, vocab, &mut rng);
        let table = embedding.forward(&(0..vocab).collect::<Vec<_>>());
        let f = Frozen::new(
            Embedding { table },
            FrozenGru::with_activations(
                cell.wx().clone(),
                cell.wh().clone(),
                cell.bias().to_vec(),
                cell.activations().clone(),
            ),
            FrozenHead::new(linear.weight().clone(), linear.bias().to_vec()),
        );
        let tokens: Vec<usize> = (0..steps).map(|_| rng.index(vocab)).collect();

        let pruner = StatePruner::new(threshold);
        let mut hp = Matrix::zeros(1, hidden);
        let reference: Vec<Matrix> = tokens.iter().map(|&t| {
            hp = pruner.apply(cell.forward(&embedding.forward(&[t]), &hp).h());
            linear.forward(&hp)
        }).collect();
        engine_replays_reference(f, threshold, &tokens, &reference, "gru word-lm");
    }

    /// Interleaved sessions sharing batched steps get exactly the outputs
    /// they would get when stepped in isolation, token order preserved.
    #[test]
    fn interleaved_sessions_match_isolated_sessions(
        seed in 0u64..1000,
        vocab in 4usize..20,
        hidden in 2usize..32,
        sessions in 2usize..5,
        steps in 1usize..6,
        threshold in 0.0f32..0.6,
        max_batch in 1usize..6,
    ) {
        let (_, f) = frozen(vocab, hidden, seed);
        let mut rng = SeedableStream::new(seed ^ 0xBA7C);
        let streams: Vec<Vec<usize>> = (0..sessions)
            .map(|_| (0..steps).map(|_| rng.index(vocab)).collect())
            .collect();

        // Interleaved: all sessions share one engine with a batch cap.
        let mut config = EngineConfig::for_threshold(threshold);
        config.max_batch = max_batch;
        let mut shared = Engine::new(f.clone(), config);
        let ids: Vec<_> = (0..sessions).map(|_| shared.open_session()).collect();
        for (stream, &id) in streams.iter().zip(&ids) {
            for &tok in stream {
                shared.submit(id, tok).unwrap();
            }
        }
        shared.run_until_idle();

        // Isolated: each session gets a private engine.
        for (s, &id) in ids.iter().enumerate() {
            let mut solo = Engine::new(f.clone(), EngineConfig::for_threshold(threshold));
            let solo_id = solo.open_session();
            for &tok in &streams[s] {
                solo.submit(solo_id, tok).unwrap();
            }
            solo.run_until_idle();
            for t in 0..steps {
                let shared_result = shared.poll(id).unwrap().expect("shared result");
                let solo_result = solo.poll(solo_id).unwrap().expect("solo result");
                prop_assert_eq!(shared_result.input, solo_result.input);
                assert_bits(
                    &shared_result.logits,
                    &solo_result.logits,
                    &format!("session {s} step {t}"),
                );
            }
        }
    }

    /// Scheduler fairness under churn: with arbitrary interleavings of
    /// open / submit / close / step, (a) every session with queued inputs
    /// receives a result within `ceil(peak_sessions / max_batch)` engine
    /// steps of becoming ready, (b) `step` only ever delivers ids that are
    /// live at delivery time, (c) closed generational ids never resolve
    /// again, and (d) the engine's `O(1)` pending counter stays exact.
    #[test]
    fn scheduler_fairness_and_stale_ids_under_churn(
        seed in 0u64..500,
        max_batch in 1usize..5,
        ops in collection::vec((0u8..4u8, any::<u64>()), 1..150),
    ) {
        let (_, f) = frozen(8, 6, seed);
        let mut config = EngineConfig::for_threshold(0.2);
        config.max_batch = max_batch;
        let mut engine = Engine::new(f, config);

        let mut live: Vec<SessionId> = Vec::new();
        let mut queued: HashMap<SessionId, usize> = HashMap::new();
        // Steps a ready session has waited without receiving a result.
        let mut waited: HashMap<SessionId, usize> = HashMap::new();
        let mut closed: Vec<SessionId> = Vec::new();
        let mut peak_live = 0usize;
        let mut expected_pending = 0usize;

        for (op, arg) in ops {
            match op {
                0 => {
                    if live.len() < 12 {
                        let id = engine.open_session();
                        prop_assert!(!live.contains(&id), "open aliased a live id");
                        prop_assert!(!closed.contains(&id), "generational id reused");
                        live.push(id);
                        queued.insert(id, 0);
                        peak_live = peak_live.max(live.len());
                    }
                }
                1 => {
                    if !live.is_empty() {
                        let id = live[(arg as usize) % live.len()];
                        engine.submit(id, (arg % 8) as usize).unwrap();
                        let q = queued.get_mut(&id).unwrap();
                        if *q == 0 {
                            waited.insert(id, 0);
                        }
                        *q += 1;
                        expected_pending += 1;
                    }
                }
                2 => {
                    if !live.is_empty() {
                        let id = live.swap_remove((arg as usize) % live.len());
                        expected_pending -= queued.remove(&id).unwrap();
                        waited.remove(&id);
                        engine.close_session(id).unwrap();
                        closed.push(id);
                    }
                }
                _ => {
                    // Copy the delivered ids out: the returned slice
                    // borrows the engine's scratch, which `poll` below
                    // needs mutably.
                    let delivered: Vec<SessionId> = engine.step().to_vec();
                    prop_assert!(delivered.len() <= max_batch);
                    for id in &delivered {
                        prop_assert!(live.contains(id), "stale id delivered by step");
                        let q = queued.get_mut(id).unwrap();
                        prop_assert!(*q > 0, "delivery without a queued input");
                        *q -= 1;
                        expected_pending -= 1;
                        if *q > 0 {
                            waited.insert(*id, 0); // re-entered at the tail
                        } else {
                            waited.remove(id);
                        }
                        let r = engine.poll(*id).unwrap().expect("delivered result pollable");
                        prop_assert_eq!(r.session, *id);
                    }
                    let bound = peak_live.div_ceil(max_batch);
                    for (id, w) in waited.iter_mut() {
                        if !delivered.contains(id) {
                            *w += 1;
                            prop_assert!(
                                *w <= bound,
                                "session {:?} starved: waited {} steps, bound {}",
                                id, w, bound
                            );
                        }
                    }
                }
            }
            prop_assert_eq!(engine.pending(), expected_pending);
        }

        // Closed generational handles must never resolve again.
        for id in &closed {
            prop_assert_eq!(engine.submit(*id, 0), Err(EngineError::UnknownSession));
            prop_assert!(matches!(engine.poll(*id), Err(EngineError::UnknownSession)));
        }
    }
}

/// Overwrites `gru.b` with seeded non-zero values.
struct RandomBias<'a>(&'a mut SeedableStream);

impl ParamVisitor for RandomBias<'_> {
    fn visit(&mut self, name: &str, param: &mut [f32], _grad: &mut [f32]) {
        if name == "gru.b" {
            param.fill_with(|| self.0.uniform(-0.5, 0.5));
        }
    }
}

/// Asserts two activation contracts are both LUT mode and carry
/// bitwise-identical tables.
fn assert_same_tables(a: &GateActivations, b: &GateActivations, context: &str) {
    let a = a.luts().expect("lut mode");
    let b = b.luts().expect("lut mode");
    for (la, lb, name) in [
        (a.sigmoid(), b.sigmoid(), "sigmoid"),
        (a.tanh(), b.tanh(), "tanh"),
    ] {
        assert_eq!(la.table().len(), lb.table().len(), "{context}: {name} len");
        for (x, y) in la.table().iter().zip(lb.table()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{context}: {name} entry");
        }
    }
}

/// The LUT tables ride the `Freezable` export and snapshot round trips
/// as data: the freezer clones the training cell's tables (never rebuilds
/// them) and the snapshot container preserves every entry bitwise, so a
/// serving process can never drift from the table the model trained with.
#[test]
fn lut_tables_survive_freeze_and_snapshot_round_trip() {
    let mut rng = SeedableStream::new(9);
    let mut model = CharLm::with_activations(10, 8, GateActivations::lut_f32(), &mut rng);
    let frozen = FrozenCharLm::freeze(&mut model);
    assert_same_tables(
        model.lstm().cell().activations(),
        frozen.lstm().activations(),
        "lstm freeze",
    );
    let back =
        FrozenCharLm::from_snapshot_bytes(&frozen.to_snapshot_bytes()).expect("char-lm round trip");
    assert_same_tables(
        frozen.lstm().activations(),
        back.lstm().activations(),
        "lstm snapshot",
    );

    let mut model = GruCharLm::with_activations(10, 8, GateActivations::lut_f32(), &mut rng);
    let frozen = FrozenGruCharLm::freeze(&mut model);
    assert_same_tables(
        model.gru().cell().activations(),
        frozen.gru().activations(),
        "gru freeze",
    );
    let back =
        FrozenGruCharLm::from_snapshot_bytes(&frozen.to_snapshot_bytes()).expect("gru round trip");
    assert_same_tables(
        frozen.gru().activations(),
        back.gru().activations(),
        "gru snapshot",
    );
}
